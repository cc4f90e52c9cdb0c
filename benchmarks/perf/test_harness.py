"""Self-test of the benchmark harness (not of the program it measures).

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf -q``.  The smoke
sizes used here exist only to exercise the harness; their numbers are never
compared.  Tier-1 (``testpaths = tests``) does not collect this file.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys

import pytest

import hostinfo

hostinfo.pin_environment()
sys.path.insert(0, str(hostinfo.SRC))

import compare  # noqa: E402
import schema  # noqa: E402
from spanrec import SpanRecorder  # noqa: E402

RUN = hostinfo.HERE / "run.py"
CONTRACT = json.loads((hostinfo.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: layer metrics that describe the host or the measurement itself and so
#: are expected to move no end-to-end metric of the program
INFORMATIONAL = {
    "host.calib_s", "host.triad_gbps", "host.gemv_gbps", "host.llc_bytes",
    "host.calib_array_bytes", "host.calib_over_llc", "solvers.phase.coverage",
    "jit.cold_build_s", "observe.trace_overhead", "fig11.compressed_over_f64",
}


def test_contract_file_matches_schema():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    for key, entries in schema.contract().items():
        assert CONTRACT[key] == entries, key


def test_contract_limits():
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    assert isinstance(CONTRACT["run_seconds"], int) and 1 <= CONTRACT["run_seconds"] <= 60
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer") for e in CONTRACT[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for entry in CONTRACT["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in CONTRACT["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in CONTRACT["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("lower", "higher")
    setup = next(e for e in CONTRACT["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in CONTRACT["end_to_end"])
    for path in CONTRACT["paths"]:
        assert (hostinfo.ROOT / path).is_dir() and not path.startswith("/") and ".." not in path
    assert len(json.dumps(CONTRACT)) <= 64 * 1024


def test_every_layer_metric_says_what_it_should_move():
    for name, layer in schema.PER_LAYER.items():
        if name in INFORMATIONAL:
            assert layer.moves == (), name
            continue
        assert layer.moves, f"{name} declares no end-to-end metric to move"
        for metric, workload in layer.moves:
            assert metric in schema.END_TO_END, (name, metric)
            assert workload in schema.WORKLOADS, (name, workload)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(schema.WORKLOADS))
def test_smoke_run_prints_every_declared_metric(workload, trace, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace), "--smoke", "--out", str(tmp_path / "run.json")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {e["name"] for e in declared}
    for entry in declared:
        got = result["metrics"][entry["name"]]
        assert got["unit"] == entry["unit"]
        assert math.isfinite(got["value"]), entry["name"]
        if not trace:
            assert got["value"] != 0, entry["name"]
        assert f"{entry['name']} " in proc.stdout  # printed by name with its unit
    detail = json.loads((tmp_path / "run.json").read_text())
    assert detail["fingerprint"]["jit_engine"] in ("cffi", "numba")
    assert detail["fingerprint"]["thread_pins"] == hostinfo.THREAD_PINS
    if trace:
        events = json.loads((hostinfo.ROOT / detail["trace_file"]).read_text())["traceEvents"]
        assert {"name", "ts", "dur", "ph", "pid", "args"} <= set(events[0])
        assert detail["metrics"]["solvers.phase.coverage"]["value"] > 0.5


def test_a_wrong_answer_is_a_failed_operation():
    import numpy as np
    from repro.sparse import generators
    import workloads

    a, b, check = workloads.seeded_system(generators.poisson_3d(6, 6, 6, shift=0.05), seed=3)
    x = np.linalg.solve(a.to_dense(), b)
    good, bad = workloads.Outcome(), workloads.Outcome()
    good.check_solve("exact", check, b, x, True, 1e-10)
    assert (good.attempted, good.failed) == (1, 0)
    bad.check_solve("perturbed", check, b, x * (1 + 1e-6), True, 1e-10)
    bad.check_solve("claims failure", check, b, x, False, 1e-10)
    bad.check_solve("not finite", check, b, np.full_like(x, np.nan), True, 1e-10)
    assert (bad.attempted, bad.failed) == (3, 3)


def test_seed_changes_inputs_but_not_the_work():
    import numpy as np
    from repro.solvers import CbGmres
    from repro.sparse import generators
    import workloads

    raw = generators.convection_diffusion_3d(8, 8, 8, peclet=(0.45, 0.25, 0.10), shift=0.02)
    results = []
    for seed in (0, 1, 2):
        a, b, _ = workloads.seeded_system(raw, seed)
        results.append((b, CbGmres(a, storage="frsz2_32", m=20).solve(b, 1e-10)))
    assert np.array_equal(results[0][0], raw.matvec(
        np.sin(np.arange(512.0)) / np.linalg.norm(np.sin(np.arange(512.0)))))
    assert not np.array_equal(results[1][0], results[2][0])
    assert len({(r.iterations, r.final_rrn) for _, r in results}) == 1


def _runs(workload, metric_values, failed=0, sizes=(1,)):
    fingerprint = {"backend": "jit", "jit_engine": "cffi", "thread_pins": {},
                   "sizes": list(sizes), "smoke": False}
    return [{"workload": workload, "trace": 0, "seconds": 15, "fingerprint": fingerprint,
             "failed": failed, "attempted": 10,
             "metrics": {e["name"]: {"value": v, "unit": e["unit"]}
                         for e in CONTRACT["end_to_end"]}}
            for v in metric_values]


def test_compare_verdicts(capsys):
    steady = [100.0, 100.5, 99.5, 100.2, 99.8]
    assert compare.compare(_runs("prec_ilu0", steady), _runs("prec_ilu0", steady), CONTRACT) == 0
    assert "0 regression, 0 unresolved" in capsys.readouterr().out
    # every metric 30 % higher: worse for the lower-is-better ones
    slower = [v * 1.3 for v in steady]
    assert compare.compare(_runs("prec_ilu0", steady), _runs("prec_ilu0", slower), CONTRACT) == 1
    assert compare.compare(_runs("prec_ilu0", steady), _runs("prec_ilu0", steady, failed=1),
                           CONTRACT) == 1
    capsys.readouterr()
    noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
    assert compare.compare(_runs("prec_ilu0", noisy), _runs("prec_ilu0", noisy), CONTRACT) == 0
    assert "unresolved" in capsys.readouterr().out
    assert compare.judge([10, 11, 12], [1, 2, 3], "lower", 0.05)[0] == "better"
    assert compare.compare(_runs("prec_ilu0", steady),
                           _runs("prec_ilu0", steady, sizes=(2,)), CONTRACT) == 2


def test_self_time_is_duration_minus_child_coverage():
    ticks = iter(range(100))
    rec = SpanRecorder("w", clock=lambda: float(next(ticks)))
    with rec.span("outer"):          # 0 .. 5
        with rec.span("inner"):      # 1 .. 2
            pass
        with rec.span("inner"):      # 3 .. 4
            pass
    assert rec.self_seconds() == {"outer": 3.0, "inner": 2.0}


def test_without_the_program_the_command_fails_without_a_result(tmp_path):
    shutil.copy(hostinfo.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(hostinfo.HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "basis_large", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
