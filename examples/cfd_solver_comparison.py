#!/usr/bin/env python
"""Solve CFD problems with every Krylov-basis storage format.

Reproduces the core experiment of the paper on a selection of the
Table I matrix analogs: for each matrix, CB-GMRES runs with the basis in
float64 / float32 / float16 / frsz2_32, and the script reports
iterations, convergence, and the modeled H100 speedup over float64.

Run:  python examples/cfd_solver_comparison.py [matrix ...]
      (defaults to atmosmodd, cfd2 and PR02R; set REPRO_SCALE=smoke for
      a fast run)
"""

import sys

from repro.bench import FIG7_FORMATS, format_table
from repro.gpu import speedup_table
from repro.solvers import CbGmres, make_problem
from repro.sparse import suite_names


def compare(matrix: str) -> None:
    problem = make_problem(matrix)
    print(f"\n{matrix}: n={problem.a.n}, nnz={problem.a.nnz}, "
          f"target RRN {problem.target_rrn:.0e}")
    results = {}
    for storage in FIG7_FORMATS:
        solver = CbGmres(problem.a, storage=storage, stall_restarts=10)
        results[storage] = solver.solve(problem.b, problem.target_rrn)
    speedups = speedup_table(list(results.values()))
    rows = []
    for storage, r in results.items():
        rows.append(
            (
                storage,
                r.iterations,
                f"{r.final_rrn:.2e}",
                "yes" if r.converged else ("stalled" if r.stalled else "no"),
                f"{r.stats.bits_per_value:.1f}",
                f"{speedups[storage]:.2f}" if r.converged else "-",
            )
        )
    print(
        format_table(
            f"{matrix} — storage-format comparison",
            ["storage", "iterations", "final RRN", "converged", "bits/value", "H100 speedup"],
            rows,
        )
    )


def main() -> None:
    matrices = sys.argv[1:] or ["atmosmodd", "cfd2", "PR02R"]
    unknown = [m for m in matrices if m not in suite_names()]
    if unknown:
        raise SystemExit(f"unknown matrices {unknown}; choose from {suite_names()}")
    for matrix in matrices:
        compare(matrix)
    print("\nExpected shapes (paper Figs. 8/11): on atmosmod* the frsz2_32")
    print("basis needs the fewest extra iterations of all compressed formats")
    print("and wins the modeled speedup; on PR02R its shared block exponents")
    print("destroy small Krylov entries and float16 fails outright.")


if __name__ == "__main__":
    main()
