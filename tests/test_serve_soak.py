"""The serve soak: ≥200 mixed jobs with seeded chaos, invariants asserted.

This is the acceptance test of the service layer's robustness contract:
every admitted job reaches a terminal state, seeded worker crashes /
hangs / solve errors are retried with backoff and succeed without
aborting unrelated jobs, the bounded queue pushes back, no cross-job
state leaks, and a sample of non-faulted jobs is bit-identical to
direct in-process solves.  `run_soak(check=True)` raises on any
violation, so the assertions here are mostly about the report shape.
"""

import json

from repro.serve import run_soak, validate_serve_health


def test_soak_200_jobs_with_chaos(tmp_path):
    out = tmp_path / "soak-report.json"
    report = run_soak(jobs=200, workers=4, seed=0, out=str(out), check=True)
    soak = report["soak"]
    serve = report["serve"]

    assert soak["invariant_failures"] == []
    assert soak["jobs"] == serve["jobs"]["accepted"] == 200
    # seeded chaos actually ran: crashes and retries happened
    assert soak["process_chaos_jobs"] >= 10
    assert serve["incidents"]["worker_crashes"] >= 10
    assert serve["jobs"]["retried"] >= soak["process_chaos_jobs"] - soak["cancel_requests"]
    assert serve["jobs"]["degraded"] > 0
    # the bounded queue pushed back while 200 jobs raced 32 slots
    assert soak["backpressure_rejections"] > 0
    # bit-identity was checked on a real sample
    assert soak["bit_identity_checked"] >= 10
    assert soak["bit_identity_mismatches"] == 0
    # every accepted job is accounted for by a terminal state
    jobs = serve["jobs"]
    assert (jobs["done"] + jobs["failed"] + jobs["cancelled"]
            + jobs["timed_out"]) == 200
    assert jobs["failed"] == 0 and jobs["timed_out"] == 0

    # the written report round-trips and validates
    doc = json.loads(out.read_text())
    validate_serve_health(doc["serve"])
    assert doc["soak"]["jobs"] == 200
