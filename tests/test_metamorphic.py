"""Metamorphic invariants of the solver (ROADMAP 7(d)).

Scaling ``b`` by a power of two scales every vector a solve computes by
the same power, exactly: the basis vectors are normalised, so they — and
their compressed payloads — do not change at all, and the Hessenberg
matrix, the least-squares right-hand side and the update scale without
a rounding.  So ``b * 2**k`` must take the same iterations and return
``x * 2**k`` byte for byte, on every rung, basis mode, backend,
preconditioner and solver.
"""

import functools

import pytest

from repro.solvers import FlexibleGmres, SolveOptions, make_problem

from .backends import requires_jit

#: powers of two that move ``b`` far down and far up, without an overflow
#: or a subnormal on the suite's smoke systems
POWERS = (-3, 5)

STORAGES = ("float64", "float32", "frsz2_16", "frsz2_21", "frsz2_32", "adaptive")


def _cells():
    """``(matrix, options, solver)``: every rung and mode of three suite
    matrices on the compiled kernels, and on numpy their cached mode and
    lung2's streaming one (the tile-by-tile streaming reference costs
    seconds a cell on the larger two); PR02R, the hard case, on the rungs
    it solves in a few hundred iterations; the three preconditioners with
    float64 and compressed factors; and the flexible solver."""
    jit = dict(marks=requires_jit)
    cells = []
    for matrix in ("atmosmodd", "cfd2", "lung2"):
        for storage in STORAGES:
            for mode in ("cached", "streaming") if matrix == "lung2" else ("cached",):
                cells.append(pytest.param(matrix, SolveOptions(
                    storage=storage, m=30, basis_mode=mode), None))
            for mode in ("cached", "streaming"):
                cells.append(pytest.param(matrix, SolveOptions(
                    storage=storage, m=30, basis_mode=mode, backend="jit"), None, **jit))
        for prec in ("jacobi", "block_jacobi", "ilu0"):
            for prec_storage in ("float64", "frsz2_32"):
                cells.append(pytest.param(matrix, SolveOptions(
                    storage="frsz2_32", m=30, backend="jit", preconditioner=prec,
                    prec_storage=prec_storage), None, **jit))
    for storage in ("float64", "float32", "frsz2_32"):
        cells.append(pytest.param("PR02R", SolveOptions(
            storage=storage, m=30, backend="jit"), None, **jit))
    cells.append(pytest.param("PR02R", SolveOptions(storage="frsz2_32", m=30), None))
    for prec in ("jacobi", "ilu0"):
        cells.append(pytest.param("lung2", SolveOptions(
            storage="frsz2_32", m=30, preconditioner=prec, prec_storage="frsz2_32"), None))
    for matrix in ("atmosmodd", "cfd2", "lung2", "PR02R"):
        cells.append(pytest.param(matrix, SolveOptions(m=30, backend="jit"),
                                  FlexibleGmres, **jit))
    cells.append(pytest.param("lung2", SolveOptions(m=30), FlexibleGmres))
    return cells


def _cell_id(value):
    if isinstance(value, SolveOptions):
        return "-".join(str(getattr(value, f)) for f in (
            "storage", "basis_mode", "backend", "preconditioner", "prec_storage"))
    return getattr(value, "__name__", value)


@functools.lru_cache(maxsize=None)
def _problem(matrix):
    return make_problem(matrix, "smoke")


@pytest.mark.parametrize("matrix,options,solver", _cells(), ids=_cell_id)
def test_scaling_b_by_a_power_of_two_scales_x_exactly(matrix, options, solver):
    p = _problem(matrix)
    kwargs = {} if solver is None else {"solver": solver}
    base = options.build(p.a, **kwargs).solve(p.b, p.target_rrn)
    assert base.iterations > 0
    for k in POWERS:
        scaled = options.build(p.a, **kwargs).solve(p.b * 2.0 ** k, p.target_rrn)
        assert scaled.iterations == base.iterations, f"k={k}"
        assert scaled.x.tobytes() == (base.x * 2.0 ** k).tobytes(), f"k={k}"
