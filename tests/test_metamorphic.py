"""Metamorphic invariants of the solver (ROADMAP 7(d)).

Scaling ``b`` by a power of two scales every vector a solve computes by
the same power, exactly: the basis vectors are normalised, so they — and
their compressed payloads — do not change at all, and the Hessenberg
matrix, the least-squares right-hand side and the update scale without
a rounding.  So ``b * 2**k`` must take the same iterations and return
``x * 2**k`` byte for byte, on every rung, basis mode, backend,
preconditioner and solver.

Two more relations hold on the same cells: a solve started from its own
converged ``x`` has nothing to do — zero iterations, zero cycles — and
the smoke targets stay reachable at restart lengths 5, 20 and 50 as
well as at the cells' 30, but where restarted GMRES itself stagnates
(``_GMRES20_STAGNATES``).

A symmetric permutation ``P A P^T y = P b`` (reverse Cuthill-McKee)
renumbers the unknowns and nothing else, so on the float64 and
``frsz2_32`` cells it reaches the target in the same iterations, to
within max(1, 2 %), and ``P^T y`` solves the original system to the
target — except where FRSZ2's blocks see the new order
(``_RCM_MOVES_FRSZ2``): the paper's Section VI-A point that FRSZ2's
quality is a property of the ordering.
"""

import functools
from dataclasses import replace

import pytest

import numpy as np

from repro.solvers import FlexibleGmres, SolveOptions, make_problem
from repro.sparse.reorder import permute_system, reverse_cuthill_mckee

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


def _solve(matrix, options, solver, b=None, **kwargs):
    p = _problem(matrix)
    built = options.build(p.a) if solver is None else options.build(p.a, solver=solver)
    return built.solve(p.b if b is None else b, p.target_rrn, **kwargs)


@functools.lru_cache(maxsize=None)
def _base(matrix, options, solver):
    return _solve(matrix, options, solver)


#: restarted GMRES is not monotone in ``m``: GMRES(20) stagnates on the
#: smoke PR02R at 1.13e-6 > 1e-6 in float64 (scipy's ``gmres(restart=20)``
#: stops at the same 1.1336e-6), while m = 5, 10, 15, 25, 30 and 50 converge
_GMRES20_STAGNATES = pytest.mark.xfail(
    strict=True, reason="GMRES(20) itself stagnates on the smoke PR02R")


def _restart_cells():
    cells = []
    for cell in _cells():
        matrix, options, solver = cell.values
        for m in (5, 20, 50):
            marks = list(cell.marks)
            rung = options.storage
            if (matrix, m) == ("PR02R", 20) and rung in ("float64", "float32"):
                marks.append(_GMRES20_STAGNATES)
            cells.append(pytest.param(matrix, options, solver, m, marks=marks))
    return cells


@pytest.mark.parametrize("matrix,options,solver", _cells(), ids=_cell_id)
def test_scaling_b_by_a_power_of_two_scales_x_exactly(matrix, options, solver):
    p = _problem(matrix)
    base = _base(matrix, options, solver)
    assert base.iterations > 0
    for k in POWERS:
        scaled = _solve(matrix, options, solver, b=p.b * 2.0 ** k)
        assert scaled.iterations == base.iterations, f"k={k}"
        assert scaled.x.tobytes() == (base.x * 2.0 ** k).tobytes(), f"k={k}"


@pytest.mark.parametrize("matrix,options,solver", _cells(), ids=_cell_id)
def test_starting_from_the_converged_x_does_nothing(matrix, options, solver):
    base = _base(matrix, options, solver)
    assert base.converged
    again = _solve(matrix, options, solver, x0=base.x)
    assert again.converged
    assert (again.iterations, len(again.stats.cycles)) == (0, 0)
    assert again.final_rrn == base.final_rrn
    assert again.x.tobytes() == base.x.tobytes()


@pytest.mark.parametrize("matrix,options,solver,m", _restart_cells(), ids=_cell_id)
def test_other_restart_lengths_reach_the_target(matrix, options, solver, m):
    assert _base(matrix, options, solver).converged
    res = _solve(matrix, replace(options, m=m), solver)
    assert res.final_rrn <= _problem(matrix).target_rrn


#: RCM groups PR02R's unknowns into other FRSZ2 blocks: on the smoke
#: PR02R ``frsz2_32`` takes 296 iterations against 209 in the original
#: order (float64: 23 and 23), and the two ``x`` differ by 116 % in norm
#: though both meet the 1e-6 target
_RCM_MOVES_FRSZ2 = pytest.mark.xfail(
    strict=True, reason="RCM moves PR02R's frsz2_32 iterations 209 -> 296")


def _permutation_cells():
    cells = []
    for cell in _cells():
        matrix, options, solver = cell.values
        if solver is not None or options.preconditioner != "none" or \
                options.storage not in ("float64", "frsz2_32"):
            continue
        marks = list(cell.marks)
        if (matrix, options.storage) == ("PR02R", "frsz2_32"):
            marks.append(_RCM_MOVES_FRSZ2)
        cells.append(pytest.param(matrix, options, marks=marks))
    return cells


@pytest.mark.parametrize("matrix,options", _permutation_cells(), ids=_cell_id)
def test_a_symmetric_permutation_reaches_the_same_target(matrix, options):
    p = _problem(matrix)
    base = _base(matrix, options, None)
    perm = reverse_cuthill_mckee(p.a)
    pa, pb = permute_system(p.a, p.b, perm)
    res = options.build(pa).solve(pb, p.target_rrn)
    assert base.converged and res.converged
    assert abs(res.iterations - base.iterations) <= max(1, 0.02 * base.iterations)
    x = perm.inverse.apply_vector(res.x)
    bnorm = np.linalg.norm(p.b)
    assert np.linalg.norm(p.b - p.a.matvec(x)) <= p.target_rrn * bnorm
    assert np.linalg.norm(p.a.matvec(x - base.x)) <= 2 * p.target_rrn * bnorm
