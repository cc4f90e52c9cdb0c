"""DCGS2 — the Arnoldi step of every solve — on the smoke suite.

Each step makes two walks of width two over the stored basis and stores
the vector it finishes once; the paper's Fig. 1 step (classical
Gram-Schmidt with the DGKS second pass, ``CGS2``) made two or three walks
of width one.  These tests hold the new step to what the old one
delivered on the 14 smoke matrices x four storages at m = 30: it
converges wherever CGS2 converged, to the target, and a float64 basis
stays orthonormal to ``1e-12`` in every cycle.  It takes at most
``max(cgs2 + 1, 1.02 cgs2)`` iterations on every such cell but one:
PR02R on ``frsz2_32`` takes 217 against 209, a miss held as a strict
xfail (:data:`AT_THE_FLOOR`), so the bound does not hold suite-wide.
"""

import numpy as np
import pytest

from repro.accessor import Float64Accessor
from repro.fused.kernels import _NumpyRows, step_rows
from repro.jit import dispatch
from repro.solvers import CbGmres, make_problem
from repro.sparse import CSRMatrix
from repro.sparse.suite import suite_names

#: the restart length, iteration cap and storages of every cell
M, MAX_ITER = 30, 3000
STORAGES = ("float64", "frsz2_16", "frsz2_21", "frsz2_32")

#: iterations of the CGS2 step on each cell that converged with it (jit,
#: m = 30, cap 3000); a cell CGS2 did not converge on is not listed
CGS2_ITERATIONS = {
    "atmosmodd": (76, 114, 85, 75), "atmosmodj": (83, 115, 88, 83),
    "atmosmodl": (83, 118, 91, 83), "atmosmodm": (85, 114, 92, 85),
    "cfd2": (37, 64, 50, 37), "HV15R": (4, 4, 4, 4), "lung2": (13, 17, 14, 13),
    "parabolic_fem": (15, 36, 28, 21), "PR02R": (23, None, None, 209),
    "RM07R": (23, None, None, 63), "StocF-1465": (27, None, None, 63),
    "aniso_jump": (None, None, None, None), "conv_dom": (531, 531, 531, 531),
    "bem_dense": (810, 854, 833, 814),
}

#: cells whose target sits at the attainable accuracy of their storage —
#: the explicit residual at a cycle's end lands within a few percent of
#: the target, so one more short cycle or one fewer is decided by
#: rounding — and on which DCGS2 takes more than the bound; strict, so a
#: step that closes the gap says so
AT_THE_FLOOR = {
    "PR02R/frsz2_32": "217 iterations against CGS2's 209 (ten short cycles)",
}

BACKEND = "jit" if dispatch.jit_available() else "numpy"


def _cells():
    for matrix in suite_names():
        for storage, cgs2 in zip(STORAGES, CGS2_ITERATIONS[matrix]):
            if cgs2 is None:
                continue
            key = f"{matrix}/{storage}"
            marks = ([pytest.mark.xfail(strict=True, reason=AT_THE_FLOOR[key])]
                     if key in AT_THE_FLOOR else [])
            yield pytest.param(matrix, storage, cgs2, id=key, marks=marks)


def test_the_table_covers_the_suite():
    assert sorted(CGS2_ITERATIONS) == sorted(suite_names())
    assert len(suite_names()) == 14


class TestAgainstCgs2:
    @pytest.mark.parametrize("matrix, storage, cgs2", list(_cells()))
    def test_converges_within_the_bound(self, matrix, storage, cgs2):
        p = make_problem(matrix, "smoke")
        r = CbGmres(p.a, storage, m=M, max_iter=MAX_ITER,
                    backend=BACKEND).solve(p.b, p.target_rrn)
        assert r.converged and r.final_rrn <= p.target_rrn
        assert r.iterations <= max(cgs2 + 1, 1.02 * cgs2)


class TestOrthonormalFloat64Basis:
    """``max |I - V^T V|`` of each cycle's stored basis, read at the end
    of the cycle — gathered one new vector at a time, since a stored
    vector never changes within its cycle."""

    @pytest.mark.parametrize("matrix", [
        m for m in suite_names() if CGS2_ITERATIONS[m][0] is not None])
    def test_every_cycle_keeps_orthogonality(self, matrix):
        cycles = []

        def monitor(iteration, j, basis, implicit):
            if j == 1:
                cycles.append(0.0)
            v = basis.matrix(j)
            loss = np.abs(v.T @ v[:, j - 1] - np.eye(j)[j - 1]).max()
            cycles[-1] = max(cycles[-1], float(loss))

        p = make_problem(matrix, "smoke")
        r = CbGmres(p.a, "float64", m=M, max_iter=MAX_ITER,
                    backend=BACKEND).solve(p.b, p.target_rrn, monitor=monitor)
        assert r.converged and len(cycles) == len(r.stats.cycles)
        assert max(cycles) <= 1e-12, cycles


class TestKrylovExhaustion:
    """A right-hand side in a two-dimensional invariant subspace: the third
    direction vanishes to a rounding, which its one pass cannot tell from
    a direction; its second pass, in the next step, finds the breakdown
    in the column it makes final — a happy breakdown, not a loss."""

    @pytest.mark.parametrize("backend", sorted({"numpy", BACKEND}))
    @pytest.mark.parametrize("seed", range(4))
    def test_ends_on_a_breakdown_without_a_loss(self, backend, seed):
        n = 60
        d = np.where(np.arange(n) % 2, 3.0, 1.0)
        a = CSRMatrix((n, n), np.arange(n + 1), np.arange(n), d)
        b = np.random.default_rng(seed).standard_normal(n)
        r = CbGmres(a, "float64", m=5, backend=backend).solve(b, 1e-10)
        assert r.converged and r.iterations == 2 and r.stats.spmv_calls == 5
        assert r.breakdown_events == []
        assert [c.loss_of_orthogonality for c in r.stats.cycles] == [False]


class _Refusing(Float64Accessor):
    """A float64 slot whose storage refuses the write a shared countdown
    reaches zero on (the third write of the solve, by default)."""

    def __init__(self, n, left):
        super().__init__(n)
        self.left = left

    def write(self, values):
        self.left[0] -= 1
        if self.left[0] == 0:
            raise ValueError("this storage refuses the vector")
        super().write(values)


class TestRefusedWrite:
    """A step whose write the storage refuses has run its walks: they are
    billed, and only the refusal is a ``basis_write_failed`` recovery."""

    def _solver(self, recovery, backend=BACKEND):
        left = [3]  # slot 2 of the first cycle
        a = make_problem("lung2", "smoke").a
        return CbGmres(a, "float64", m=10, backend=backend, recovery=recovery,
                       storage_factory=lambda fmt, n: _Refusing(n, left))

    def test_recovers_with_the_walks_billed(self):
        p = make_problem("lung2", "smoke")
        r = self._solver(True).solve(p.b, p.target_rrn)
        assert r.converged
        assert [e.kind for e in r.breakdown_events] == ["basis_write_failed"]
        first = r.stats.cycles[0]
        # steps over 0, 1 and 2 stored vectors ran; the last one's write
        # was refused after its two walks over two vectors
        assert (first.iterations, first.step_walks, first.step_vectors) == (2, 4, 6)

    def test_without_recovery_the_storage_error_propagates(self):
        p = make_problem("lung2", "smoke")
        with pytest.raises(ValueError, match="refuses the vector"):
            self._solver(False).solve(p.b, p.target_rrn)

    def test_other_errors_of_a_step_are_not_a_refusal(self, monkeypatch):
        calls = []

        def broken(*args):
            calls.append(None)
            if len(calls) == 3:  # the step over two stored vectors
                raise ValueError("not the storage")
            return step_rows(*args)

        monkeypatch.setattr(_NumpyRows, "step", broken)
        p = make_problem("lung2", "smoke")
        with pytest.raises(ValueError, match="not the storage"):
            self._solver(True, "numpy").solve(p.b, p.target_rrn)
