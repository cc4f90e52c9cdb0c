"""Related-work study: CB-GMRES vs. FGMRES-with-compressed-Z (ref [17]).

The paper's related work contrasts two ways of compressing Krylov data:
CB-GMRES compresses the orthonormal basis V (maximum traffic savings,
convergence risk), Agullo et al. [17] compress the preconditioned basis
Z inside flexible GMRES ("improves the numerical stability at the price
of reduced runtime benefits").  This bench measures both sides on
FRSZ2's best (atmosmodd) and worst (PR02R) problems.
"""

from repro.bench import format_table
from repro.gpu import speedup_table
from repro.solvers import CbGmres, FlexibleGmres, make_problem


def test_related_work_cb_vs_fgmres(benchmark, paper_report):
    def run():
        rows = []
        for matrix in ("atmosmodd", "PR02R"):
            p = make_problem(matrix)
            base = CbGmres(p.a, "float64").solve(p.b, p.target_rrn)
            cb = CbGmres(p.a, "frsz2_32", stall_restarts=10).solve(p.b, p.target_rrn)
            fg = FlexibleGmres(p.a, "frsz2_32", stall_restarts=10).solve(
                p.b, p.target_rrn
            )
            speedups = speedup_table([base, cb, fg])
            for label, r in (("cb-gmres[frsz2_32]", cb), ("fgmres[frsz2_32]", fg)):
                rows.append(
                    (
                        matrix,
                        label,
                        r.iterations,
                        "yes" if r.converged else "no",
                        base.iterations,
                        f"{speedups[r.storage]:.3f}" if r.converged else "-",
                    )
                )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    paper_report(
        format_table(
            "Related work — compress V (CB-GMRES) vs compress Z (FGMRES, ref [17])",
            ["matrix", "solver", "iterations", "converged", "f64 iters", "modeled speedup"],
            rows,
        )
    )
    by = {(r[0], r[1]): r for r in rows}
    # stability: FGMRES tracks float64 iterations even on PR02R
    fg_pr = by[("PR02R", "fgmres[frsz2_32]")]
    cb_pr = by[("PR02R", "cb-gmres[frsz2_32]")]
    assert fg_pr[2] <= fg_pr[4] * 1.3
    assert cb_pr[2] > 2 * fg_pr[2]
    # runtime: CB-GMRES keeps the larger speedup where it converges well
    fg_at = by[("atmosmodd", "fgmres[frsz2_32]")]
    cb_at = by[("atmosmodd", "cb-gmres[frsz2_32]")]
    assert float(cb_at[5]) > float(fg_at[5])
