#!/usr/bin/env python3
"""Wall-clock benchmark of the repro package: one command, four workloads.

One run (what the driver calls)::

    python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

measures one workload in this process and prints, as its last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding every
end-to-end metric (``--trace 0``) or every per-layer metric (``--trace 1``).

Without ``--workload`` it runs every workload in a fresh interpreter each
(``--runs`` seeds starting at ``--seed``; with ``--trace`` the traced pass
as well), prints every metric by name with its unit, and writes the
collected runs to ``--out`` for ``compare.py``.

It exits non-zero when any verified operation failed.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path
from typing import Any, Dict, List, Optional

import hostinfo

hostinfo.pin_environment()  # before numpy is first imported

import schema  # noqa: E402


def _default_seconds() -> float:
    contract = json.loads((hostinfo.ROOT / "BENCHMARK.json").read_text())
    return float(contract["run_seconds"])


def run_one(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
            out: Optional[Path]) -> int:
    """Measure one workload in this process; returns the exit code."""
    t_start = time.perf_counter()
    if not (hostinfo.SRC / "repro").is_dir():
        print(f"error: no program to measure at {hostinfo.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(hostinfo.SRC))
    import repro.jit

    # the numbers are only comparable on the compiled engine: a request
    # that degraded to numpy is an error here, not a warning
    warnings.simplefilter("error", repro.jit.JitUnavailableWarning)
    engine = repro.jit.jit_engine_name()
    if engine is None:
        print(f"error: jit engine unavailable: {repro.jit.jit_unavailable_reason()}",
              file=sys.stderr)
        return 2

    import workloads

    spec = workloads.specs(smoke)[workload]
    doc: Dict[str, Any] = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "fingerprint": hostinfo.fingerprint(engine, {workload: list(spec)}, smoke),
    }
    with hostinfo.Calibrator() as calibrate:
        doc["startup"] = startup = hostinfo.measure_import(calibrate)
        if trace:
            import layers
            from spanrec import SpanRecorder

            rec = SpanRecorder(workload)
            result = layers.run_layers(workload, spec, seed, seconds, calibrate,
                                       startup["jit_load_s"], rec)
            trace_path = hostinfo.OUT_DIR / f"trace_{workload}.json"
            rec.write_chrome_trace(trace_path)
            doc["trace_file"] = str(trace_path.relative_to(hostinfo.ROOT))
            doc["self_seconds"] = rec.self_seconds()
            declared = schema.PER_LAYER
        else:
            serve = isinstance(spec, workloads.ServeSpec)
            result = (workloads.run_serve if serve else workloads.run_solo)(
                spec, seed, seconds, calibrate)
            result["metrics"]["setup_s"] = hostinfo.CALIB_REFERENCE_S / result["setup_calib_s"] * (
                startup["import_s"] + startup["jit_load_s"]
                + statistics.median(result["rebuild_s"]))
            doc["rebuild_s"] = result["rebuild_s"]
            doc["samples"] = result["samples"]
            declared = schema.END_TO_END
        doc["calibration_s"] = hostinfo.summarize(calibrate.samples)

    metrics = result["metrics"]
    if set(metrics) != set(declared):
        raise RuntimeError(
            f"metrics out of step with schema: missing {sorted(set(declared) - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - set(declared))}")
    outcome = result["outcome"]
    finite = all(math.isfinite(v) for v in metrics.values())
    correct = outcome.failed == 0 and finite
    doc.update(
        notes=result["notes"], correct=correct, attempted=outcome.attempted,
        failed=outcome.failed, failures=outcome.reasons,
        metrics={name: {"value": float(metrics[name]), "unit": declared[name].unit}
                 for name in declared},
        wall_s=time.perf_counter() - t_start,
    )
    if out is None:
        out = hostinfo.OUT_DIR / f"run_{workload}_seed{seed}_trace{int(trace)}.json"
    hostinfo.write_json(out, doc)

    for name, entry in doc["metrics"].items():
        print(f"{workload:15s} {name:34s} {entry['value']:.6g} {entry['unit']}")
    for reason in outcome.reasons:
        print(f"FAILED {reason}")
    print(f"{workload}: {outcome.failed}/{outcome.attempted} operations failed, "
          f"details in {out}")
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": doc["metrics"]}))
    return 0 if correct else 1


def run_suite(names: List[str], seed: int, runs: int, seconds: float, trace: bool,
              smoke: bool, out: Path) -> int:
    """Every workload in a fresh interpreter each; collects ``out``."""
    collected: List[Dict[str, Any]] = []
    status = 0
    passes = [0, 1] if trace else [0]
    for name in names:
        for trace_flag in passes:
            # the traced pass gives layer numbers, not a distribution
            for run_seed in range(seed, seed + (1 if trace_flag else runs)):
                part = hostinfo.OUT_DIR / f"run_{name}_seed{run_seed}_trace{trace_flag}.json"
                cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                       "--seed", str(run_seed), "--seconds", str(seconds),
                       "--trace", str(trace_flag), "--out", str(part)]
                if smoke:
                    cmd.append("--smoke")
                proc = subprocess.run(cmd)
                if proc.returncode != 0:
                    status = 1
                if proc.returncode in (0, 1):
                    collected.append(json.loads(part.read_text()))
    hostinfo.write_json(out, {"schema": "repro-perf-runs/1", "runs": collected})
    failed = sum(r["failed"] for r in collected)
    attempted = sum(r["attempted"] for r in collected)
    print(f"fail_ratio {failed}/{attempted}; {len(collected)} runs written to {out}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(schema.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring window per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrunken sizes that only self-test the harness")
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload when running them all")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else _default_seconds()
    if args.workload:
        return run_one(args.workload, args.seed, seconds, bool(args.trace), args.smoke, args.out)
    out = args.out or hostinfo.OUT_DIR / "runs.json"
    return run_suite(list(schema.WORKLOADS), args.seed, args.runs, seconds,
                     bool(args.trace), args.smoke, out)


if __name__ == "__main__":
    sys.exit(main())
