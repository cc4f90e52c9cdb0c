"""Soak harness: hundreds of mixed jobs + seeded chaos, invariants asserted.

The robustness contract is only believable under sustained load, so the
soak run queues a few hundred solves with mixed configurations (matrix,
storage format, SpMV format, basis mode, restart length, RHS seed),
injects a deterministic subset of faults (worker crashes, hangs,
in-process solve errors, data-level bit flips), cancels a few jobs
mid-flight, and then checks the invariants that define the contract:

* every admitted job reaches a terminal state — nothing wedges;
* no cross-job state leakage (the worker isolation sentinel never
  fires, and a sample of non-faulted jobs is **bit-identical** to
  :func:`direct_solve`, an in-process solve that goes through no
  worker, payload, monitor or chaos code);
* every crash/hang/solve-error chaos job was retried with backoff and
  finished ``DONE`` — faults on one job never abort unrelated jobs;
* backpressure engaged (the bounded queue rejected with
  ``queue_full`` at least once when the submit rate exceeds drain).

The run can write the serve health block (plus the soak summary) to a
report file — ``python -m repro soak`` defaults to ``soak-report.json``.
That report is a run output, not a committed artifact: queue waits and
rejection counts depend on the host, and tier-1
``tests/test_serve_soak.py`` re-runs the seeded 200-job soak live.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from ..robust.chaos import ChaosSpec
from ..solvers.problems import make_problem
from ..sparse.engine import SPMV_FORMATS
from .engine import ServeConfig, SolveEngine
from .health import build_serve_health, write_serve_report
from .jobs import JobRecord, JobSpec, JobState
from .queue import QueueFullError

__all__ = ["SoakError", "build_soak_specs", "direct_solve", "run_soak"]

#: fast smoke-scale suite matrices used for the job mix
_MATRICES = ("cfd2", "parabolic_fem", "lung2", "atmosmodd")
_STORAGES = ("frsz2_16", "frsz2_32", "float64")
_BASIS_MODES = ("cached", "cached", "cached", "streaming")


class SoakError(AssertionError):
    """A soak invariant failed; the message lists every violation."""


def _chaos_for(index: int) -> Optional[Dict[str, Any]]:
    """Deterministic chaos plan: disjoint residue classes pick the
    fault kind; every plan targets attempt 1 only, so the retry runs
    clean and is expected to succeed."""
    if index % 13 == 5:
        return ChaosSpec("worker_crash", at_iteration=5, only_attempt=1).to_dict()
    if index % 29 == 11:
        return ChaosSpec("solve_error", at_iteration=5, only_attempt=1).to_dict()
    if index % 61 == 17:
        return ChaosSpec("worker_hang", at_iteration=5, only_attempt=1).to_dict()
    if index % 37 == 19:
        # data-level fault: the solver's own recovery path handles it
        return ChaosSpec("payload_bitflip", rate=0.01, seed=index,
                         only_attempt=1).to_dict()
    return None


def build_soak_specs(jobs: int, seed: int = 0) -> List[JobSpec]:
    """The deterministic mixed-config job list for a soak of ``jobs``."""
    specs = []
    for i in range(jobs):
        specs.append(JobSpec(
            matrix=_MATRICES[i % len(_MATRICES)],
            storage=_STORAGES[i % len(_STORAGES)],
            scale="smoke",
            m=20 if i % 2 else 30,
            max_iter=400,
            rhs_seed=seed * 100_000 + i,
            # as many formats as storages: step on by the storage cycle so
            # every storage meets every format
            spmv_format=SPMV_FORMATS[i // len(_STORAGES) % len(SPMV_FORMATS)],
            basis_mode=_BASIS_MODES[i % len(_BASIS_MODES)],
            progress_every=5,
            chaos=_chaos_for(i),
        ))
    return specs


def direct_solve(spec: JobSpec):
    """The reference a served job must equal, built straight from
    ``spec``: its problem, the seeded ``b = A x / ||x||`` that
    :attr:`JobSpec.rhs_seed` documents, and
    ``spec.options.build(A).solve``."""
    problem = make_problem(spec.matrix, spec.scale, target_rrn=spec.target_rrn)
    b = problem.b
    if spec.rhs_seed is not None:
        x = np.random.default_rng(spec.rhs_seed).standard_normal(problem.a.shape[1])
        b = problem.a.matvec(x / np.linalg.norm(x))
    return spec.options.build(problem.a).solve(
        b, problem.target_rrn, record_history=False
    )


def _is_process_chaos(spec: JobSpec) -> bool:
    return spec.chaos is not None and spec.chaos["kind"] in (
        "worker_crash", "worker_hang", "solve_error"
    )


def run_soak(
    jobs: int = 200,
    workers: int = 4,
    seed: int = 0,
    max_queue: int = 32,
    verify_every: int = 10,
    cancel_every: int = 41,
    heartbeat_timeout_s: float = 2.0,
    deadline_s: float = 120.0,
    out: Optional[str] = None,
    check: bool = True,
    log: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Run the soak; returns ``{"serve": health, "soak": summary}``.

    ``verify_every`` samples every n-th clean job for the bit-identity
    check against :func:`direct_solve`.  With ``check=True`` (the
    default) any invariant violation raises :class:`SoakError` after
    the engine is shut down.
    """
    say = log or (lambda _msg: None)
    specs = build_soak_specs(jobs, seed)
    config = ServeConfig(
        workers=workers,
        max_queue=max_queue,
        max_retries=2,
        backoff_base_s=0.02,
        backoff_cap_s=0.5,
        heartbeat_timeout_s=heartbeat_timeout_s,
        default_deadline_s=deadline_s,
        cancel_grace_s=0.5,
        seed=seed,
    )
    t0 = time.perf_counter()
    records: List[JobRecord] = []
    cancelled_ids = []
    say(f"soak: {jobs} jobs on {workers} workers (queue bound {max_queue})")
    with SolveEngine(config) as engine:
        for i, spec in enumerate(specs):
            while True:
                try:
                    record = engine.submit(spec)
                    break
                except QueueFullError:
                    # backpressure engaged: wait for the queue to drain a slot
                    time.sleep(0.005)
            records.append(record)
            if cancel_every and i % cancel_every == cancel_every // 2:
                engine.cancel(record.job_id)
                cancelled_ids.append(record.job_id)
        drained = engine.drain(timeout=600.0)
        health = build_serve_health(engine)
        if not drained:
            engine.close(force=True)
    wall_s = time.perf_counter() - t0
    say(f"soak: drained={drained} in {wall_s:.1f}s; verifying invariants")

    failures: List[str] = []
    if not drained:
        failures.append("drain timed out; engine had non-terminal jobs")
    for record in records:
        if not record.terminal:
            failures.append(f"{record.job_id} not terminal: {record.state}")

    # fault jobs: retried with backoff, then succeeded — and their
    # failure never aborted unrelated jobs (checked by the clean-job
    # invariant below)
    chaos_process = [
        r for r, s in zip(records, specs) if _is_process_chaos(s)
    ]
    for record in chaos_process:
        if record.job_id in cancelled_ids:
            continue
        if record.state != JobState.DONE:
            failures.append(
                f"{record.job_id} (chaos {record.spec.chaos['kind']}) "
                f"ended {record.state}: {record.reason}"
            )
        elif len(record.attempts) < 2 or record.retries < 1:
            failures.append(
                f"{record.job_id} (chaos {record.spec.chaos['kind']}) "
                f"was not retried (attempts={len(record.attempts)})"
            )

    clean = [
        r for r, s in zip(records, specs)
        if s.chaos is None and r.job_id not in cancelled_ids
    ]
    for record in clean:
        if record.state != JobState.DONE:
            failures.append(
                f"{record.job_id} (clean) ended {record.state}: "
                f"{record.reason}"
            )

    for record in records:
        for attempt in record.attempts:
            if attempt.error and "IsolationError" in attempt.error:
                failures.append(
                    f"{record.job_id} attempt {attempt.index}: cross-job "
                    f"state leakage: {attempt.error}"
                )

    # bit-identity: a served clean job's solution must equal a direct
    # in-process run of the identical spec, bit for bit
    verified = mismatched = 0
    # single-attempt jobs only: a retried job may have been degraded to
    # a different storage format, which changes the (correct) bits
    sample = [
        r for r in clean
        if r.state == JobState.DONE and len(r.attempts) == 1
    ][::max(verify_every, 1)]
    for record in sample:
        reference = direct_solve(record.spec)
        served = record.result
        if served is None:
            failures.append(f"{record.job_id} done without a result payload")
            continue
        same = (
            np.array_equal(served["x"], reference.x)
            and served["iterations"] == reference.iterations
            and served["final_rrn"] == reference.final_rrn
        )
        verified += 1
        if not same:
            mismatched += 1
            failures.append(
                f"{record.job_id} not bit-identical to direct solve "
                f"(iters {served['iterations']} vs "
                f"{reference.iterations})"
            )
    say(f"soak: bit-identity verified on {verified} jobs "
        f"({mismatched} mismatches)")

    summary = {
        "jobs": jobs,
        "workers": workers,
        "seed": seed,
        "wall_seconds": round(wall_s, 3),
        "chaos_jobs": sum(1 for s in specs if s.chaos is not None),
        "process_chaos_jobs": len(chaos_process),
        "cancel_requests": len(cancelled_ids),
        "backpressure_rejections": health["jobs"]["rejected"]["queue_full"],
        "bit_identity_checked": verified,
        "bit_identity_mismatches": mismatched,
        "invariant_failures": failures,
    }
    report = {"serve": health, "soak": summary}
    if out is not None:
        write_serve_report(out, health, soak=summary)
        say(f"soak: report written to {out}")
    if check and failures:
        raise SoakError(
            "soak invariants violated:\n  " + "\n  ".join(failures)
        )
    return report
