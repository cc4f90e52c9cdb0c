#!/usr/bin/env python3
"""Compare two sets of benchmark runs: ``compare.py A.json B.json``.

``A`` is the base (parent commit), ``B`` the change; both are files written
by ``run.py --runs N --out FILE``.  For every (workload, end-to-end metric)
pair one row shows both medians with their quartiles and ``B/A``.  Bounds
and directions come from ``BENCHMARK.json``.

* ``regression`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — the run-to-run spread (interquartile range over the
  median, the wider of the two sides) exceeds the bound, so "no change"
  cannot be claimed — unless every B run beats every A run (``better``);
* ``ok`` — neither.

Runs whose fingerprints differ in engine, thread pins, sizes or measuring
window are refused (exit 2).  Exit 1 on any regression or when B failed
more operations than A; unresolved rows do not change the exit code but
are counted on the last line.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import hostinfo


def load_runs(path: Path) -> List[Dict[str, Any]]:
    doc = json.loads(path.read_text())
    if doc.get("schema") != "repro-perf-runs/1":
        raise SystemExit(f"{path}: not a run.py --out file")
    return doc["runs"]


def comparable_key(run: Dict[str, Any]) -> str:
    fp = run["fingerprint"]
    key = {field: fp[field] for field in hostinfo.COMPARABLE_FIELDS}
    key["seconds"] = run["seconds"]
    return json.dumps(key, sort_keys=True)


def by_workload(runs: List[Dict[str, Any]], trace: int) -> Dict[str, List[Dict[str, Any]]]:
    grouped: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for run in runs:
        if run["trace"] == trace:
            grouped[run["workload"]].append(run)
    return grouped


def values(runs: List[Dict[str, Any]], metric: str) -> List[float]:
    return [run["metrics"][metric]["value"] for run in runs]


def judge(a: List[float], b: List[float], better: str, bound: float) -> Tuple[str, float, float]:
    """(verdict, B/A of medians, spread) for one metric on one workload."""
    qa, qb = hostinfo.quartiles(a), hostinfo.quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (qb[1] - qa[1]) / abs(qa[1])
    spread = max((q[2] - q[0]) / abs(q[1]) for q in (qa, qb))
    if worse_by > bound:
        verdict = "regression"
    elif spread > bound:
        all_better = max(sign * v for v in b) < min(sign * v for v in a)
        verdict = "better" if all_better else "unresolved"
    else:
        verdict = "ok"
    return verdict, qb[1] / qa[1], spread


def _cell(vals: List[float]) -> str:
    q1, med, q3 = hostinfo.quartiles(vals)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}] n={len(vals)}"


def compare(a_runs: List[Dict[str, Any]], b_runs: List[Dict[str, Any]],
            contract: Dict[str, Any]) -> int:
    a_e2e, b_e2e = by_workload(a_runs, 0), by_workload(b_runs, 0)
    counts = {"regression": 0, "unresolved": 0, "better": 0, "ok": 0}
    for workload in (w["name"] for w in contract["workloads"]):
        a, b = a_e2e.get(workload), b_e2e.get(workload)
        if not a or not b:
            print(f"{workload}: missing from {'A' if not a else 'B'}, skipped")
            continue
        keys = {comparable_key(run) for run in a + b}
        if len(keys) != 1:
            print(f"{workload}: fingerprints differ, refusing to compare:", file=sys.stderr)
            for key in sorted(keys):
                print(f"  {key}", file=sys.stderr)
            return 2
        for metric in contract["end_to_end"]:
            name = metric["name"]
            va, vb = values(a, name), values(b, name)
            verdict, ratio, spread = judge(va, vb, metric["better"], metric["bound"])
            counts[verdict] += 1
            print(f"{workload:15s} {name:15s} {metric['unit']:8s} A {_cell(va):38s} "
                  f"B {_cell(vb):38s} B/A {ratio:.4f} (base A) spread {spread:.3f} "
                  f"bound {metric['bound']:.2f} {metric['better']:6s} {verdict}")
        failed_a, failed_b = sum(r["failed"] for r in a), sum(r["failed"] for r in b)
        attempted_a, attempted_b = sum(r["attempted"] for r in a), sum(r["attempted"] for r in b)
        worse = failed_b / attempted_b > failed_a / attempted_a
        counts["regression" if worse else "ok"] += 1
        print(f"{workload:15s} {'fail_ratio':15s} {'':8s} A {failed_a}/{attempted_a} "
              f"B {failed_b}/{attempted_b} bound 0 (absolute) "
              f"{'regression' if worse else 'ok'}")

    a_layers, b_layers = by_workload(a_runs, 1), by_workload(b_runs, 1)
    for workload in sorted(set(a_layers) & set(b_layers)):
        print(f"-- {workload}: per-layer numbers (no bound, first traced run of each side)")
        ma, mb = a_layers[workload][0]["metrics"], b_layers[workload][0]["metrics"]
        for name in sorted(set(ma) & set(mb)):
            va, vb = ma[name]["value"], mb[name]["value"]
            ratio = f"{vb / va:.4f}" if va else "n/a"
            print(f"{workload:15s} {name:34s} {ma[name]['unit']:8s} A {va:<12.6g} "
                  f"B {vb:<12.6g} B/A {ratio} (base A)")

    print(f"{counts['regression']} regression, {counts['unresolved']} unresolved, "
          f"{counts['better']} better, {counts['ok']} ok")
    return 1 if counts["regression"] else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="base runs (parent commit)")
    parser.add_argument("b", type=Path, help="runs of the change")
    args = parser.parse_args(argv)
    contract = json.loads((hostinfo.ROOT / "BENCHMARK.json").read_text())
    return compare(load_runs(args.a), load_runs(args.b), contract)


if __name__ == "__main__":
    sys.exit(main())
