"""Ablation: can reordering rescue FRSZ2 on hostile matrices?

The paper's Section VI-A attributes PR02R's FRSZ2 failure to ordering:
HV15R has an "extremely similar value distribution" but its non-zero
ordering "may lead neighboring Krylov vector values to have a similar
magnitude, mitigating the effects observed in PR02R".  This bench tests
the actionable consequence: apply a magnitude-grouping (and, for
contrast, a bandwidth-reducing RCM) permutation to PR02R and measure
FRSZ2's convergence.

Expected outcome: magnitude grouping collapses most of FRSZ2's
iteration penalty (the blocks stop mixing exponents); RCM — which
clusters by *connectivity*, blind to the scattered scale spikes — does
not.  float64 is ordering-invariant, confirming the effect is purely a
storage-format artifact.
"""

import numpy as np

from repro.bench import format_table
from repro.solvers import CbGmres, make_problem
from repro.sparse import (
    frsz2_kill_fraction,
    magnitude_ordering,
    permute_system,
    reverse_cuthill_mckee,
)


def test_ablation_reordering_pr02r(benchmark, paper_report):
    p = make_problem("PR02R")

    def run():
        orderings = {
            "original": None,
            "magnitude-grouped": magnitude_ordering(np.abs(p.b)),
            "RCM": reverse_cuthill_mckee(p.a),
        }
        rows = []
        for label, perm in orderings.items():
            if perm is None:
                a, b = p.a, p.b
            else:
                a, b = permute_system(p.a, p.b, perm)
            kill = frsz2_kill_fraction(b / np.linalg.norm(b))
            frsz2 = CbGmres(a, "frsz2_32", stall_restarts=10).solve(b, p.target_rrn)
            f64 = CbGmres(a, "float64", stall_restarts=10).solve(b, p.target_rrn)
            rows.append(
                (
                    label,
                    f"{kill:.1%}",
                    f64.iterations,
                    frsz2.iterations if frsz2.converged else 0,
                    f"{frsz2.iterations / f64.iterations:.2f}" if frsz2.converged else "-",
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    paper_report(
        format_table(
            "Ablation — reordering PR02R (frsz2_32 rescue)",
            ["ordering", "blocks w/ killed members", "float64 iters", "frsz2_32 iters", "frsz2/f64"],
            rows,
        )
    )
    by = {r[0]: r for r in rows}
    # float64 is ordering-invariant (within a couple of iterations)
    assert abs(by["original"][2] - by["magnitude-grouped"][2]) <= 3
    # magnitude grouping collapses the penalty
    assert 0 < by["magnitude-grouped"][3] < by["original"][3] / 1.5
    # connectivity-based RCM does not address the scale mixing
    assert by["RCM"][3] == 0 or by["RCM"][3] > by["magnitude-grouped"][3]
