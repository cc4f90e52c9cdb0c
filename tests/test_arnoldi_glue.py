"""The scalar glue of an Arnoldi step, and how much interpreter it costs.

Around the basis walks a step does its scalar work in one written order:
the norms are :func:`repro.fused.norm2` — the fused dot's lane order, no
BLAS — held here to a spelled-out scalar oracle on both backends and at
several thread counts; the Givens column of
:meth:`~repro.solvers.GivensLeastSquares.append_column` runs in machine
floats, held to the numpy-scalar spelling it replaced as raw ``uint64``.
The last class counts the frames of ``repro`` code a step enters: the one
place a change that re-thickens the step turns red, deterministically.
"""

import math
import os
import sys

import numpy as np
import pytest

import repro
from repro.fused import DEFAULT_TILE_ELEMS, norm2
from repro.jit import dispatch
from repro.solvers import CbGmres, GivensLeastSquares
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
            assert _bits(ours.r) == _bits(ref._r)
            assert _bits(ours.g) == _bits(ref._g)
            assert _bits(ours.cs[: j + 1]) == _bits(ref._cs[: j + 1])
            assert _bits(ours.sn[: j + 1]) == _bits(ref._sn[: j + 1])
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


def _norm2_oracle(w, tile):
    """The written order of ``norm2``, one scalar at a time: per tile of
    the grid, eight lanes from +0.0, element ``i`` squared into lane
    ``(i - t0) mod 8``, the fixed tree; the tile partials summed in tile
    order from +0.0; the correctly rounded root."""
    total = 0.0
    values = w.tolist()
    for t0 in range(0, len(values), tile):
        a = [0.0] * 8
        for i, x in enumerate(values[t0:t0 + tile]):
            a[i % 8] += x * x
        total += ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]))
    return math.sqrt(total)


def _norm2_everywhere(w, tile=DEFAULT_TILE_ELEMS):
    """``norm2(w)`` on the numpy backend and, with an engine, on the jit
    backend at one, two and three threads of the pool."""
    got = [norm2(w, tile, "numpy")]
    engine = dispatch.load_engine()
    if engine is not None:
        pool = engine.threads
        try:
            for threads in (1, 2, 3):
                engine.set_threads(threads)
                got.append(norm2(w, tile, "jit"))
        finally:
            engine.set_threads(pool)
    return got


class TestNormInMachineFloats:
    #: the four benchmark workloads' vector lengths (48^3, 24^3, 64^3 and
    #: the serve suite's cfd2), then odd tails around the lanes and tiles
    LENGTHS = (110592, 13824, 262144, 19683, 1, 2, 3, 7, 31, 33, 255, 1001)

    @pytest.mark.parametrize("n", LENGTHS)
    def test_the_written_lane_order(self, n):
        rng = np.random.default_rng(n)
        for scale in (1.0, 1e-160, 1e150):
            w = rng.standard_normal(n) * scale
            want = _norm2_oracle(w, DEFAULT_TILE_ELEMS)
            for got in _norm2_everywhere(w):
                assert isinstance(got, float)
                assert _bits(got) == _bits(want)
        # a grid of its own: the partials of many tiles, more than a round
        w = rng.standard_normal(n)
        for got in _norm2_everywhere(w, 8):
            assert _bits(got) == _bits(_norm2_oracle(w, 8))

    def test_nonfinite_vectors_do_not_raise(self):
        # an overflowing sum of squares is inf, not a warning (-W error)
        for vector, check in (
            (np.array([1.0, np.nan]), math.isnan),
            (np.array([np.inf, 1.0]), lambda v: v == math.inf),
            (np.array([1.0, -np.inf]), lambda v: v == math.inf),
            (np.full(4, 1e200), lambda v: v == math.inf),
            (np.zeros(0), lambda v: v == 0.0),
        ):
            assert all(map(check, _norm2_everywhere(vector)))


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
    untraced accessor bills nothing; 64.0 and 41.3 with the step one
    call).  Deterministic: a count, no clock."""

    @pytest.mark.parametrize("storage, basis_mode, iterations, budget", [
        ("frsz2_32", "streaming", 119, 66),
        ("float64", "cached", 117, 43),
    ])
    def test_frames_per_step(self, storage, basis_mode, iterations, budget):
        frames, steps = _repro_frames_per_step(storage, basis_mode)
        print(f"\nrepro frames per Arnoldi step, {storage} {basis_mode}: "
              f"{frames:.1f} (budget {budget})")
        assert steps == iterations
        assert frames <= budget
