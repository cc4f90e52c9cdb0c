"""Ablation: FRSZ2 bit length l (paper Section IV-C).

The paper evaluates l in {16, 21, 32} and concludes: 16 is fast but
imprecise, 32 is the sweet spot, 21 pays the straddling-access penalty
without a performance return ("only useful in case frsz2_32 would not
fit in GPU memory").  This bench sweeps l across both aligned and
straddling values, reporting storage, accuracy, modeled H100 throughput
and end-to-end iterations on atmosmodd.
"""

import numpy as np
import pytest

from repro.bench import format_table
from repro.core import FRSZ2
from repro.gpu import H100_PCIE
from repro.gpu.kernels import format_cost, read_kernel_cost
from repro.solvers import CbGmres, make_problem

BIT_LENGTHS = (12, 16, 21, 24, 32, 40, 48)


def test_ablation_bit_length_quality_and_model(benchmark, paper_report):
    rng = np.random.default_rng(1)
    x = rng.standard_normal(1 << 16)
    x /= np.linalg.norm(x)

    def run():
        rows = []
        for l in BIT_LENGTHS:
            codec = FRSZ2(l)
            y = codec.roundtrip(x)
            err = float(np.max(np.abs(y - x)))
            fmt = format_cost(f"frsz2_{l}")
            t = read_kernel_cost(fmt, 1 << 28, 1.0).time_on(H100_PCIE)
            rows.append(
                (
                    l,
                    "aligned" if fmt.aligned else "straddling",
                    fmt.stored_bits,
                    err,
                    (1 << 28) / t / 1e9,
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    paper_report(
        format_table(
            "Ablation — bit length l: storage, accuracy, modeled throughput",
            ["l", "layout", "bits/value", "max abs err", "Gvalues/s (model)"],
            rows,
        )
    )
    by_l = {r[0]: r for r in rows}
    # accuracy improves monotonically with l
    errs = [r[3] for r in rows]
    assert all(a >= b for a, b in zip(errs, errs[1:]))
    # the paper's frsz2_21 finding: no faster than frsz2_32 despite
    # a third less data
    assert by_l[21][4] <= by_l[32][4] * 1.02
    # aligned l=16 is the fastest
    assert by_l[16][4] == max(r[4] for r in rows)


def test_ablation_bit_length_end_to_end(benchmark, paper_report):
    """Iterations to target with an l-bit basis (atmosmodd).

    Reproduces the Section VI note that frsz2_21's convergence sits
    between float16 and frsz2_32.
    """
    p = make_problem("atmosmodd")

    def run():
        rows = []
        for fmtname in ("float16", "frsz2_16", "frsz2_21", "frsz2_32", "float64"):
            res = CbGmres(p.a, fmtname, max_iter=4000).solve(p.b, p.target_rrn)
            rows.append(
                (fmtname, res.iterations, "yes" if res.converged else "no")
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    paper_report(
        format_table(
            "Ablation — bit length end-to-end on atmosmodd",
            ["storage", "iterations", "converged"],
            rows,
        )
    )
    by = {r[0]: r[1] for r in rows if r[2] == "yes"}
    assert by["frsz2_32"] <= by["frsz2_21"] <= by["float16"]


@pytest.mark.parametrize("l", [16, 21, 32])
def test_ablation_bit_length_compress_throughput(benchmark, l):
    rng = np.random.default_rng(l)
    x = rng.standard_normal(1 << 20)
    codec = FRSZ2(l)
    benchmark(codec.compress, x)
