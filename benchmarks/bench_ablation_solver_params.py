"""Ablation over the restart length ``m``, which the paper fixes.

The paper pins m = 100 "to limit the memory requirements" (Section V-B,
footnote 5).  The sweep exposes the trade-off the choice balances: short
restarts discard subspace information (more iterations), long ones grow
the basis traffic per iteration (the orthogonalization reads j vectors
at step j) and the Krylov-basis memory footprint.  (The threshold
``eta`` of Fig. 1 step 7 is not swept: under DCGS2 every vector gets its
second pass, and ``eta`` only sets the breakdown and loss tests.)
"""

from repro.bench import format_table
from repro.gpu import solve_phases
from repro.solvers import CbGmres, make_problem

RESTARTS = (25, 50, 100, 200)


def test_ablation_restart_length(benchmark, paper_report):
    p = make_problem("atmosmodd")

    def run():
        rows = []
        for m in RESTARTS:
            res = CbGmres(p.a, "frsz2_32", m=m).solve(p.b, p.target_rrn)
            t = sum(solve_phases(res.stats).values())
            basis_mb = m * res.stats.n * res.stats.bits_per_value / 8 / 1e6
            rows.append(
                (
                    m,
                    res.iterations,
                    "yes" if res.converged else "no",
                    t * 1e3,
                    basis_mb,
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    paper_report(
        format_table(
            "Ablation — restart length m on atmosmodd (frsz2_32 basis)",
            ["m", "iterations", "converged", "modeled ms", "basis MB"],
            rows,
        )
    )
    by_m = {r[0]: r for r in rows}
    assert all(r[2] == "yes" for r in rows)
    # shorter restarts cost iterations
    assert by_m[25][1] >= by_m[100][1]
    # basis memory grows linearly with m (the paper's reason for m=100)
    assert by_m[200][4] > by_m[100][4] > by_m[25][4]

