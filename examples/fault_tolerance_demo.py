#!/usr/bin/env python
"""Fault tolerance: bit flips, breakdown recovery and precision fallback.

The paper treats the compressed Krylov basis as a numerical trade-off;
this demo stresses it as a *reliability* trade-off instead.  A seeded
injector flips bits in the stored FRSZ2 streams and poisons SpMV
outputs while CB-GMRES runs:

1. the unhardened solver (recovery disabled) crashes or diverges;
2. the hardened solver detects the poisoned Arnoldi cycles, salvages
   the clean columns and restarts from the explicit residual;
3. ``RobustCbGmres`` escalates the storage format along
   ``repro.solvers.escalation`` (``frsz2_16 -> frsz2_32 -> float64``)
   whenever an attempt stalls or exhausts its recovery budget;
4. the full campaign sweeps fault kind x storage format x rate and
   prints the survival-rate table.

Run:  python examples/fault_tolerance_demo.py
"""

import os

import numpy as np

from repro.robust import FaultInjector, FaultySpmvMatrix, RobustCbGmres, run_campaign
from repro.solvers import CbGmres, make_problem

SCALE = os.environ.get("REPRO_SCALE", "smoke")
SEED = 7
RATE = 0.05  # per-SpMV probability of one poisoned output element


def _injector() -> FaultInjector:
    """A fresh injector with the demo's seed (replayable fault stream)."""
    return FaultInjector(RATE, SEED)


def demo_unhardened_vs_hardened() -> None:
    print("=" * 64)
    print("NaN-poisoned SpMV: unhardened crash vs. breakdown recovery")
    print("=" * 64)
    p = make_problem("atmosmodd", SCALE)

    faulty = FaultySpmvMatrix(p.a, _injector(), "spmv_nan")
    try:
        res = CbGmres(faulty, "frsz2_32", m=50, max_iter=2000,
                      recovery=False).solve(p.b, p.target_rrn)
        status = "diverged" if not res.converged else "converged (lucky seed)"
        print(f"unhardened frsz2_32: {status}, final rrn {res.final_rrn:.3e}")
    except Exception as exc:
        print(f"unhardened frsz2_32: CRASHED — {type(exc).__name__}: {exc}")

    faulty = FaultySpmvMatrix(p.a, _injector(), "spmv_nan")
    res = CbGmres(faulty, "frsz2_32", m=50, max_iter=2000).solve(p.b, p.target_rrn)
    kinds = sorted({e.kind for e in res.breakdown_events})
    print(f"hardened   frsz2_32: converged={res.converged} after "
          f"{res.iterations} iterations, {res.recoveries} recoveries")
    print(f"  breakdown events: {kinds}")
    print(f"  final rrn {res.final_rrn:.3e} (target {p.target_rrn:.1e}); "
          f"x finite: {bool(np.all(np.isfinite(res.x)))}")
    print()


def demo_fallback_chain() -> None:
    print("=" * 64)
    print("Automatic precision fallback (frsz2_16 -> frsz2_32 -> float64)")
    print("=" * 64)
    # PR02R is the paper's hard case: lossy formats struggle, float64 wins
    p = make_problem("PR02R", SCALE)
    solver = RobustCbGmres(p.a, "frsz2_16", m=50, max_iter=2000)
    rr = solver.solve(p.b, p.target_rrn * 1e-4)  # tighten to force escalation
    for i, att in enumerate(rr.attempts):
        status = ("converged" if att.converged
                  else "stalled" if att.stalled else "gave up")
        print(f"  attempt {i + 1}: {att.storage:10s} {status:10s} "
              f"after {att.iterations} iterations (rrn {att.final_rrn:.3e})")
    print(f"outcome: {rr.outcome} — solved with {rr.storage_used} "
          f"({rr.total_iterations} total iterations)")
    print()


def demo_campaign() -> None:
    print("=" * 64)
    print("Survival campaign: fault kind x storage format x rate")
    print("=" * 64)
    camp = run_campaign(matrix="atmosmodd", scale=SCALE, seed=SEED)
    print(camp.table())
    print()
    print(camp.summary())
    assert camp.survival_rate == 1.0, "hardened campaign must survive every cell"
    print()
    print(f"all {len(camp.cells)} cells survived "
          f"(survival rate {camp.survival_rate:.0%})")


def main() -> None:
    demo_unhardened_vs_hardened()
    demo_fallback_chain()
    demo_campaign()


if __name__ == "__main__":
    main()
