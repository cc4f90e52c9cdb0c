"""The scalar glue of an Arnoldi step, and how much interpreter it costs.

Around the basis walks a step does its scalar work in machine floats —
norms as ``math.sqrt(float(w.dot(w)))``, the Givens column as a Python
list — which is only allowed because it is the same IEEE operations as
the numpy-scalar spelling it replaced: both spellings are held to each
other here as raw ``uint64``, so a numpy that changes its norm fails a
test, not a benchmark gate.  The last class counts the frames of
``repro`` code a step enters: the one place a change that re-thickens
the step turns red, deterministically.
"""

import math
import os
import sys

import numpy as np
import pytest

import repro
from repro.solvers import CbGmres, GivensLeastSquares
from repro.solvers.orthogonal import _norm
from repro.sparse import generators

from .backends import requires_jit


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64).tolist()


class _NumpyScalarGivens:
    """``GivensLeastSquares.append_column`` as it was spelled on numpy
    scalars: the reference the machine-float loop is held to."""

    def __init__(self, m, beta):
        self.m = m
        self._r = np.zeros((m + 1, m))
        self._cs = np.zeros(m)
        self._sn = np.zeros(m)
        self._g = np.zeros(m + 1)
        self._g[0] = beta
        self._j = 0

    def append_column(self, h, h_next):
        j = self._j
        col = np.zeros(self.m + 1)
        col[: h.size] = h
        col[h.size] = h_next
        for i in range(j):
            c, s = self._cs[i], self._sn[i]
            t = c * col[i] + s * col[i + 1]
            col[i + 1] = -s * col[i] + c * col[i + 1]
            col[i] = t
        a, b = col[j], col[j + 1]
        r = float(np.hypot(a, b))
        if r == 0.0:
            c, s = 1.0, 0.0
        else:
            c, s = a / r, b / r
        self._cs[j], self._sn[j] = c, s
        col[j], col[j + 1] = r, 0.0
        gj = self._g[j]
        self._g[j] = c * gj
        self._g[j + 1] = -s * gj
        self._r[:, j] = col[: self.m + 1]
        self._j += 1
        return abs(float(self._g[self._j]))


class TestGivensInMachineFloats:
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_the_numpy_scalar_spelling(self, seed):
        rng = np.random.default_rng(seed)
        m = 12
        ours, ref = GivensLeastSquares(m, 0.75), _NumpyScalarGivens(m, 0.75)
        specials = np.array([0.0, -0.0, 5e-324, -3e-310, 1e-300, -1e300])
        for j in range(m):
            h = rng.standard_normal(j + 1) * 10.0 ** rng.integers(-8, 8, j + 1)
            planted = rng.random(j + 1) < 0.3
            h[planted] = rng.choice(specials, planted.sum())
            h_next = float(rng.choice([abs(rng.standard_normal()), 0.0, -0.0, 5e-324]))
            if j == 4:  # r == 0: the rotation is the identity
                h[-1], h_next = 0.0, -0.0
                for i in range(j):  # rotate a zero pair into place
                    h[i] = 0.0
            assert _bits(ours.append_column(h.copy(), h_next)) == _bits(
                ref.append_column(h.copy(), h_next))
            assert _bits(ours._r) == _bits(ref._r)
            assert _bits(ours._g) == _bits(ref._g)
            assert _bits(ours._cs) == _bits(ref._cs[: j + 1])
            assert _bits(ours._sn) == _bits(ref._sn[: j + 1])
        assert ours.size == m

    def test_nonfinite_columns_fail_loudly(self):
        for h, h_next in [(np.array([np.nan]), 1.0), (np.array([1.0]), np.inf),
                          (np.array([-np.inf]), 0.0)]:
            ls = GivensLeastSquares(3, 1.0)
            with pytest.raises(FloatingPointError):
                ls.append_column(h, h_next)
            assert ls.size == 0 and ls.residual_norm == 1.0
        full = GivensLeastSquares(1, 1.0)
        full.append_column(np.array([1.0]), 1.0)
        with pytest.raises(RuntimeError):
            full.append_column(np.array([1.0, 2.0]), 1.0)


class TestNormInMachineFloats:
    #: the four benchmark workloads' vector lengths (48^3, 24^3, 64^3 and
    #: the serve suite's cfd2), then odd tails around BLAS unrolls
    LENGTHS = (110592, 13824, 262144, 19683, 1, 2, 3, 7, 31, 33, 255, 1001)

    @pytest.mark.parametrize("n", LENGTHS)
    def test_sqrt_of_dot_is_numpys_norm(self, n):
        rng = np.random.default_rng(n)
        for scale in (1.0, 1e-160, 1e150):
            w = rng.standard_normal(n) * scale
            assert _bits(_norm(w)) == _bits(np.linalg.norm(w))
            assert isinstance(_norm(w), float)

    def test_nonfinite_vectors_do_not_raise(self):
        assert math.isnan(_norm(np.array([1.0, np.nan])))
        assert _norm(np.array([np.inf, 1.0])) == math.inf
        with np.errstate(over="ignore"):  # the dot overflows, as in numpy's
            assert _norm(np.full(4, 1e200)) == math.inf
        assert _norm(np.zeros(0)) == 0.0


def _repro_frames_per_step(storage, basis_mode):
    """Frames whose code lives under ``src/repro`` entered per Arnoldi
    step of one solve of the ``stream_lowmem`` system (24^3 stencil,
    m = 50), counted with ``sys.setprofile``."""
    a = generators.convection_diffusion_3d(
        24, 24, 24, peclet=(0.45, 0.25, 0.10), shift=0.02, name="atmosmodd")
    s = np.sin(np.arange(a.shape[0], dtype=np.float64))
    b = a.matvec(s / np.linalg.norm(s))
    solver = CbGmres(a, storage, m=50, max_iter=2000, basis_mode=basis_mode,
                     backend="jit", spmv_format="auto")
    root = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
    entered = 0

    def profiler(frame, event, arg):
        nonlocal entered
        if event == "call" and frame.f_code.co_filename.startswith(root):
            entered += 1

    sys.setprofile(profiler)
    try:
        result = solver.solve(b, 1e-12)
    finally:
        sys.setprofile(None)
    assert result.converged
    return entered / result.iterations, result.iterations


@requires_jit
class TestInterpreterBudget:
    """What a step may cost in interpreted ``repro`` frames (329 and 162
    before the basis kept its source, 115.4 and 80.9 while the restart
    cycle stepped a list of columns, 110.2 and 75.7 at one right-hand
    side; 108.1 and 73.5 with one SpMV operator; 101.2 and 71.5 once an
    untraced accessor bills nothing).  Deterministic: a count, no
    clock."""

    @pytest.mark.parametrize("storage, basis_mode, iterations, budget", [
        ("frsz2_32", "streaming", 119, 103),
        ("float64", "cached", 117, 73),
    ])
    def test_frames_per_step(self, storage, basis_mode, iterations, budget):
        frames, steps = _repro_frames_per_step(storage, basis_mode)
        print(f"\nrepro frames per Arnoldi step, {storage} {basis_mode}: "
              f"{frames:.1f} (budget {budget})")
        assert steps == iterations
        assert frames <= budget
