"""Ablation: truncation vs round-to-nearest in FRSZ2's cut step.

Compression step 5 "cut[s] the new representation to the appropriate
length l" — truncation, which needs no extra instructions and cannot
carry into the sign bit.  Round-to-nearest halves the worst-case error
at the cost of an add (and a carry clamp).  This bench quantifies what
the paper's design choice gives up: per-value accuracy, instructions,
and end-to-end iterations.
"""

import numpy as np

from repro.accessor import accessor_factory
from repro.bench import format_table
from repro.core import FRSZ2
from repro.solvers import CbGmres, make_problem


def test_ablation_rounding_accuracy(benchmark, paper_report):
    rng = np.random.default_rng(2)
    x = rng.standard_normal(1 << 16)
    x /= np.linalg.norm(x)

    def run():
        rows = []
        for l in (16, 32):
            trunc = np.abs(FRSZ2(l, rounding=False).roundtrip(x) - x)
            rnd = np.abs(FRSZ2(l, rounding=True).roundtrip(x) - x)
            rows.append(
                (
                    l,
                    float(trunc.max()),
                    float(rnd.max()),
                    float(trunc.max() / rnd.max()),
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    paper_report(
        format_table(
            "Ablation — truncation vs rounding: worst-case error",
            ["l", "truncate max err", "round max err", "ratio"],
            rows,
        )
    )
    for _, terr, rerr, ratio in rows:
        assert rerr <= terr
        assert ratio > 1.5  # rounding roughly halves the worst case


def test_ablation_rounding_end_to_end(benchmark, paper_report):
    p = make_problem("atmosmodd")

    def run():
        rows = []
        for rounding in (False, True):
            factory = accessor_factory("frsz2_32", rounding=rounding)
            res = CbGmres(p.a, "frsz2_32", storage_factory=factory).solve(
                p.b, p.target_rrn
            )
            rows.append(
                (
                    "round-to-nearest" if rounding else "truncate (paper)",
                    res.iterations,
                    "yes" if res.converged else "no",
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    paper_report(
        format_table(
            "Ablation — truncation vs rounding end-to-end on atmosmodd",
            ["cut mode", "iterations", "converged"],
            rows,
        )
    )
    assert all(r[2] == "yes" for r in rows)
    trunc_iters = rows[0][1]
    round_iters = rows[1][1]
    # rounding can only help convergence modestly; the design point is
    # that truncation is already close enough to be worth the saved ops
    assert round_iters <= trunc_iters
    assert trunc_iters <= round_iters * 1.5
