"""Fused compressed-basis kernels and the streaming basis mode.

The load-bearing property is the determinism contract of
:mod:`repro.fused`: the accumulation order is *written down* — a scalar
oracle of it lives here — and every route (cached mirror read in place,
streaming FRSZ2 decoded in the kernel, every tile-by-tile fallback, a
batch column; numpy and compiled) reproduces it bit for bit, so the
``cached`` and ``streaming`` basis modes give the same Hessenberg
entries, residual histories and solutions.  The satellite property is
the memory claim: streaming never materializes an ``(n, m)`` float64
basis.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accessor import make_accessor
from repro.accessor.frsz2_accessor import Frsz2Accessor, Frsz2Tiles
import repro.fused
from repro.fused import (
    DEFAULT_TILE_ELEMS,
    BatchTileReader,
    CachedTileReader,
    FusedOpLog,
    StreamingTileReader,
    axpy_batch,
    axpy_fused,
    combine_fused,
    dot_basis_batch,
    dot_basis_fused,
    tile_grid,
)
from repro.fused.kernels import TileReader, _LoadedRows, _NumpyRows, step_walks
from repro.observe import Tracer
from repro.solvers import CbGmres, make_problem
from repro.solvers.basis import BASIS_MODES, KrylovBasis
from repro.solvers.orthogonal import cgs_orthogonalize

from repro.jit import dispatch

from .backends import BACKENDS, requires_jit

STORAGES = ["frsz2_16", "frsz2_32", "float32", "float64"]

krylov_vals = st.lists(
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, allow_subnormal=False),
    min_size=1,
    max_size=200,
)


def _filled_bases(n, j, storage, rng, tile_elems=DEFAULT_TILE_ELEMS, m=None):
    """One cached + one streaming basis holding the same j vectors."""
    m = m or max(j, 1)
    bases = [
        KrylovBasis(n, m, storage, basis_mode=mode, tile_elems=tile_elems)
        for mode in BASIS_MODES
    ]
    for i in range(j):
        v = rng.standard_normal(n)
        v /= max(np.linalg.norm(v), 1.0)
        for b in bases:
            b.write_vector(i, v)
    return bases


class TestTileGrid:
    def test_covers_exactly(self):
        for n in (1, 31, 32, 33, 1000):
            for tile in (1, 32, 64, 2048):
                grid = tile_grid(n, tile)
                assert grid[0][0] == 0 and grid[-1][1] == n
                for (a0, a1), (b0, b1) in zip(grid, grid[1:]):
                    assert a1 == b0
                assert all(t1 - t0 <= tile for t0, t1 in grid)

    def test_rejects_nonpositive_tile(self):
        with pytest.raises(ValueError):
            tile_grid(10, 0)


class TestKernelsAgainstDense:
    """Fused kernels equal the dense-matrix reference (within fp jitter
    of the reduction order — exact for a single tile)."""

    @given(vals=krylov_vals, j=st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_dot_combine_axpy_match_dense(self, vals, j):
        n = len(vals)
        rng = np.random.default_rng(n * 31 + j)
        cache = np.zeros((n, j + 1), order="F")
        for i in range(j):
            cache[:, i] = rng.permuted(np.array(vals))
        w = np.array(vals)
        y = rng.standard_normal(j)
        reader = CachedTileReader(cache, j)
        v = cache[:, :j]
        assert np.allclose(dot_basis_fused(reader, w, 64), v.T @ w)
        assert np.allclose(combine_fused(reader, y, 64), v @ y)
        w2 = w.copy()
        axpy_fused(reader, y, w2, 64)
        assert np.allclose(w2, w - v @ y)

    def test_axpy_bitwise_equals_combine_subtraction(self):
        # each element is touched exactly once -> not just close, equal
        rng = np.random.default_rng(7)
        n, j = 777, 4
        cache = np.asfortranarray(rng.standard_normal((n, j + 1)))
        w = rng.standard_normal(n)
        y = rng.standard_normal(j)
        via_combine = w - combine_fused(CachedTileReader(cache, j), y, 128)
        via_axpy = axpy_fused(CachedTileReader(cache, j), y, w.copy(), 128)
        np.testing.assert_array_equal(via_axpy, via_combine)

    def test_zero_vectors_edge(self):
        cache = np.zeros((10, 1), order="F")
        reader = CachedTileReader(cache, 0)
        assert dot_basis_fused(reader, np.ones(10)).shape == (0,)
        np.testing.assert_array_equal(
            combine_fused(reader, np.zeros(0)), np.zeros(10)
        )


def oracle_dot(rows, w, tile):
    """The written dot order, one Python float operation at a time."""
    rows = [np.asarray(r, dtype=np.float64).tolist() for r in rows]
    w = np.asarray(w, dtype=np.float64).tolist()
    h = [0.0] * len(rows)
    for t0 in range(0, len(w), tile):
        t1 = min(t0 + tile, len(w))
        for r, v in enumerate(rows):
            a = [0.0] * 8
            for i in range(t0, t1):
                a[(i - t0) % 8] += v[i] * w[i]
            h[r] += ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]))
    return np.array(h, dtype=np.float64)


def oracle_axpy(rows, y, w, store):
    """The written axpy (``store``: combine) order, element by element."""
    rows = [np.asarray(r, dtype=np.float64).tolist() for r in rows]
    y = np.asarray(y, dtype=np.float64).tolist()
    out = np.asarray(w, dtype=np.float64).tolist()
    for i in range(len(out)):
        s = y[0] * rows[0][i]
        for r in range(1, len(rows)):
            s += y[r] * rows[r][i]
        out[i] = s if store else out[i] - s
    return np.array(out, dtype=np.float64)


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64).tolist()


def _unit(v):
    """``v`` scaled to unit norm: a step's tentative vector."""
    return v / np.linalg.norm(v)


def _step_outputs(source, k, n, tile, t, w, eta, stored=None, state=None,
                  flexible=False, half=False):
    """A step over a row source as raw bits: its flags, ``q``, the next
    tentative vector, ``a``, ``b``, its ``out`` words (``rho``, the new
    subdiagonal, the residual, ``||w||``) and the least-squares state it
    leaves (``None``: none given).  The first half runs on ``source``; the
    second, unless a flag or ``half``, on ``stored`` — a source whose row
    ``k`` holds ``q`` as stored (default: ``q`` itself, as float64 rows)."""
    q, v, a, b, out = np.empty(n), np.zeros(n), np.empty(k), np.zeros(k + 1), np.zeros(6)
    live = None if state is None else state.copy()
    flags = source.step(k, n, tile, t, w, eta, live, q, v, a, b, out)
    if not (flags or half):
        if stored is None:
            stored = _NumpyRows(np.vstack([np.zeros((k, n)), q]))
        flags = stored.column(k, n, tile, np.empty(n), v, w, k, eta, flexible, live, a,
                              b, out)
    return (flags, _bits(q), _bits(v), _bits(a), _bits(b), _bits(out[[0, 1, 2, 5]]),
            None if live is None else _bits(live))


#: the values that break a sloppy summation: signed zeros, subnormals,
#: and magnitudes whose sums cancel 600 orders of magnitude apart
_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
             1e300, -1e300, 1e-300, -1e-300, 1.0, -1.0]


def _hostile_values(rng, shape, spread=40, specials=_SPECIALS):
    x = rng.standard_normal(shape) * np.exp2(
        rng.integers(-spread, spread, shape).astype(float))
    special = rng.random(shape) < 0.4
    x[special] = rng.choice(specials, size=int(special.sum()))
    return x


def _hostile_operand(rng, shape):
    """Like the rows, but small enough that no product overflows."""
    return _hostile_values(rng, shape, 8, [s for s in _SPECIALS if abs(s) <= 1.0])


class TestWrittenOrder:
    """numpy and compiled kernels equal the scalar oracle as raw bits."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("tile", [32, 96, 2048])
    @pytest.mark.parametrize("j", [0, 1, 3, 6, 25])
    @given(seed=st.integers(0, 2**16), eights=st.integers(0, 30),
           tail=st.integers(1, 7), long=st.booleans(), hostile=st.booleans())
    @settings(max_examples=8, deadline=None)
    def test_kernels_equal_the_scalar_oracle(self, backend, tile, j, seed,
                                             eights, tail, long, hostile):
        # never a multiple of 8, hence never of a tile; ``long`` crosses
        # the 2048 boundary so the widest tile also sees two tiles
        n = 8 * eights + tail + (2048 if long and j <= 6 else 0)
        rng = np.random.default_rng(seed)
        if hostile:
            cache = np.asfortranarray(_hostile_values(rng, (n, j + 1)))
            w, y = _hostile_operand(rng, n), _hostile_operand(rng, j)
        else:  # ordinary magnitudes: every reassociation rounds differently
            cache = np.asfortranarray(rng.standard_normal((n, j + 1)))
            w, y = rng.standard_normal(n), rng.standard_normal(j)
        rows = [cache[:, r] for r in range(j)]
        reader = CachedTileReader(cache, j, backend)
        assert _bits(dot_basis_fused(reader, w, tile)) == _bits(
            oracle_dot(rows, w, tile))
        if j:
            assert _bits(combine_fused(reader, y, tile)) == _bits(
                oracle_axpy(rows, y, np.zeros(n), True))
            assert _bits(axpy_fused(reader, y, w.copy(), tile)) == _bits(
                oracle_axpy(rows, y, w, False))
            # width two: each operand the oracle's walk of its own (hostile
            # rows leave 1e300s in w: their products overflow)
            x, y2 = w[::-1] * 0.5, y[::-1] * 0.25
            hw, hx, a, b = np.zeros(j), np.zeros(j), w.copy(), x.copy()
            with np.errstate(over="ignore", invalid="ignore"):
                reader.source.fused_dot2(j, n, tile, w, x, hw, hx)
                reader.source.fused_axpy2(j, n, tile, y, a, y2, b)
            assert _bits(hw) == _bits(oracle_dot(rows, w, tile))
            assert _bits(hx) == _bits(oracle_dot(rows, x, tile))
            assert _bits(a) == _bits(oracle_axpy(rows, y, w, False))
            assert _bits(b) == _bits(oracle_axpy(rows, y2, x, False))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_all_negative_zero_products(self, backend):
        """Lanes start at +0.0, so a dot of -0.0 products is +0.0; a
        combine has no +0.0 to start from and keeps the sign."""
        n, j = 77, 3
        cache = np.asfortranarray(np.full((n, j), -0.0))
        reader = CachedTileReader(cache, j, backend)
        w, y = np.full(n, 2.0), np.full(j, 3.0)
        assert _bits(dot_basis_fused(reader, w, 32)) == _bits(np.zeros(j))
        assert _bits(combine_fused(reader, y, 32)) == _bits(np.full(n, -0.0))
        assert _bits(axpy_fused(reader, y, np.full(n, -0.0), 32)) == _bits(np.zeros(n))
        # width two: the same signs for both operands
        hx, hy = np.zeros(j), np.zeros(j)
        reader.source.fused_dot2(j, n, 32, w, -w, hx, hy)
        assert _bits(hx) == _bits(hy) == _bits(np.zeros(j))
        x, z = np.full(n, -0.0), np.full(n, -0.0)
        reader.source.fused_axpy2(j, n, 32, y, x, y, z)
        assert _bits(x) == _bits(z) == _bits(np.zeros(n))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rows_and_load_serve_the_same_values(self, backend):
        """A C-ordered cache cannot be read in place; its tile-by-tile
        route gives the bits of the in-place one."""
        rng = np.random.default_rng(5)
        dense = rng.standard_normal((333, 4))
        w, y = rng.standard_normal(333), rng.standard_normal(4)
        in_place = CachedTileReader(np.asfortranarray(dense), 4, backend)
        by_tile = CachedTileReader(np.ascontiguousarray(dense), 4, backend)
        assert type(in_place.source) is not _LoadedRows
        assert type(by_tile.source) is _LoadedRows
        for op in (lambda r: dot_basis_fused(r, w, 96),
                   lambda r: combine_fused(r, y, 96),
                   lambda r: axpy_fused(r, y, w.copy(), 96)):
            assert _bits(op(in_place)) == _bits(op(by_tile))


#: reader routes of the walks: name -> storage of each slot (cycled),
#: ``None`` for the dense caches
_SWEEP_ROUTES = {
    "mirror": None,          # F-order cache, rows read in place
    "c_order": None,         # C-order cache, loaded tile by tile
    "streaming": ["frsz2_32"],   # jit: the row table; numpy: codec tiles
    "numpy_codecs": ["frsz2_32"],  # numpy codecs under the reader's kernels
    "wrapped": ["frsz2_32"],       # a fault-injecting wrapper on slot 1
    "mixed": ["frsz2_32", "frsz2_16", "float32"],
    "float32": ["float32"],
    "float64": ["float64"],
}


def _sweep_reader(route, backend, vectors, j):
    """A reader over the leading ``j`` columns of ``vectors`` by ``route``."""
    from repro.robust import FaultInjector, FaultyAccessor

    n = vectors.shape[0]
    if route == "mirror":
        return CachedTileReader(np.asfortranarray(vectors), j, backend)
    if route == "c_order":
        return CachedTileReader(np.ascontiguousarray(vectors), j, backend)
    formats = _SWEEP_ROUTES[route]
    accs = []
    for r in range(max(j, 1)):
        acc = make_accessor(
            formats[r % len(formats)], n,
            backend="numpy" if route == "numpy_codecs" else backend)
        if route == "wrapped" and r == 1:
            # every write flips a stored bit: the values both orders of
            # evaluation read back are equally wrong
            acc = FaultyAccessor(acc, FaultInjector(1.0, 7), "payload_bitflip")
        acc.write(vectors[:, r])
        accs.append(acc)
    return StreamingTileReader(accs, j, backend)


def _walks_of_width_two(reader, j, n, tile, w, x, y, y2):
    """``fused_dot2`` of ``(w, x)`` and ``fused_axpy2`` of ``(w, x)`` with
    ``(y, y2)`` over ``reader``'s source, as raw bits."""
    hw, hx, a, b = np.zeros(j), np.zeros(j), w.copy(), x.copy()
    if j:  # a walk is never asked for no rows
        reader.source.fused_dot2(j, n, tile, w, x, hw, hx)
        reader.source.fused_axpy2(j, n, tile, y, a, y2, b)
    return _bits(hw), _bits(hx), _bits(a), _bits(b)


class TestSweepIsAxpyThenDot:
    """The step's two walks have width two, and each is *defined* by the
    walks of width one: ``fused_dot2`` as the dot of each operand,
    ``fused_axpy2`` — the sweep of both vectors by the stored rows — as
    the axpy of each.  Every operand carries those bytes on every reader
    route, tile grid, depth and backend, whether a tile ends on a lane
    group, a piece boundary or neither."""

    #: no tails; ``mod 8`` and ``mod 256`` tails; one piece and a lane group
    SIZES = (512, 523, 264)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("route", sorted(_SWEEP_ROUTES))
    def test_every_route_tile_and_depth(self, backend, route):
        rng = np.random.default_rng(41)
        for n in self.SIZES:
            vectors = rng.standard_normal((n, 50)) / np.sqrt(n)
            w, x = rng.standard_normal(n), rng.standard_normal(n)
            for j in (0, 1, 4, 5, 50):
                y, y2 = rng.standard_normal(j), rng.standard_normal(j)
                for tile in (32, 40, 2048, n + 7):
                    reader = _sweep_reader(route, backend, vectors, j)
                    if route == "streaming":
                        one_call = type(reader.source) is Frsz2Tiles
                        assert one_call == (backend == "jit" and j > 0)
                    separate = (
                        _bits(dot_basis_fused(reader, w, tile)),
                        _bits(dot_basis_fused(reader, x, tile)),
                        _bits(axpy_fused(reader, y, w.copy(), tile)),
                        _bits(axpy_fused(reader, y2, x.copy(), tile)))
                    where = f"{route} n={n} j={j} tile={tile}"
                    assert _walks_of_width_two(
                        reader, j, n, tile, w, x, y, y2) == separate, where

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_routes_agree_with_each_other(self, backend):
        """Same stored values, same bits: the mirror read in place, the
        tile-by-tile cache and the streaming decode of one float64 basis."""
        rng = np.random.default_rng(43)
        n, j = 523, 5
        vectors = rng.standard_normal((n, j))
        w, x = rng.standard_normal(n), rng.standard_normal(n)
        y, y2 = rng.standard_normal(j), rng.standard_normal(j)
        results = [
            _walks_of_width_two(_sweep_reader(route, backend, vectors, j),
                                j, n, 96, w, x, y, y2)
            for route in ("mirror", "c_order", "float64")]
        assert results[0] == results[1] == results[2]


class _Subclassed(Frsz2Accessor):
    """Not exactly a ``Frsz2Accessor``, so never read behind its back: a
    wrapped slot that bills its tiles like the format it wraps."""


def _accessor_bill(tracer):
    return {k: v for k, v in tracer.counters.items() if k.startswith("accessor.")}


class TestEverySourceKind:
    """The row-source protocol of :mod:`repro.fused.kernels`: whatever
    source a reader carries, each walk — the dot, the axpy and the sweep
    (the axpy of width two) — leaves the same bytes and bills every
    accessor the tile reads of a ``read_tile`` loop."""

    n, j, tile = 523, 5, 96

    def _accessors(self, vectors, backend, wrapped=None):
        accs = [(_Subclassed if r == wrapped else Frsz2Accessor)(self.n, backend=backend)
                for r in range(self.j)]
        for r, acc in enumerate(accs):
            acc.write(vectors[:, r])
        return accs

    def _reader(self, kind, backend, vectors, decoded):
        """``(reader, the accessors it bills)``, once the reader carries
        the source its ``kind`` and ``backend`` call for."""
        from repro.jit.cbackend import DenseRows

        jit = backend == "jit"
        if kind in ("rows", "c_order"):  # the mirror's layout, or not
            order = np.asfortranarray if kind == "rows" else np.ascontiguousarray
            accs, reader = [], CachedTileReader(order(decoded), self.j, backend)
        else:  # plain accessors; "read_tile": slot 1 is not exactly one
            accs = self._accessors(
                vectors, backend, wrapped=1 if kind == "read_tile" else None)
            reader = StreamingTileReader(accs, self.j, backend)
        expected = {"rows": DenseRows if jit else _NumpyRows,
                    "tiles": Frsz2Tiles if jit else _LoadedRows}
        assert type(reader.source) is expected.get(kind, _LoadedRows)
        if kind == "tiles" and not jit:  # loaded by the codec's tile decoder
            assert type(reader.source.load.__self__) is Frsz2Tiles
        elif kind == "read_tile":  # ... and here by one read_tile per slot
            assert not hasattr(reader.source.load, "__self__")
        return reader, accs

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kind", ["rows", "tiles", "c_order", "read_tile"])
    @pytest.mark.parametrize("walk", ["dot", "axpy", "sweep"])
    def test_same_bytes_and_the_same_bill(self, walk, kind, backend):
        rng = np.random.default_rng(29)
        vectors = rng.standard_normal((self.n, self.j)) / np.sqrt(self.n)
        w, y = rng.standard_normal(self.n), rng.standard_normal(self.j)
        # the reference: the decoded values under the numpy kernels, and
        # the bill of one read_tile per accessor per tile
        billed = self._accessors(vectors, "numpy")
        decoded = np.stack([acc.read() for acc in billed], axis=1)
        bill = Tracer()
        for acc in billed:
            acc.set_tracer(bill)
            for t0, t1 in tile_grid(self.n, self.tile):
                acc.read_tile(t0, t1)

        def run(reader):
            out_w = w.copy()
            if walk == "dot":
                out = dot_basis_fused(reader, out_w, self.tile)
            elif walk == "axpy":
                out = axpy_fused(reader, y, out_w, self.tile)
            else:
                out = w[::-1].copy()
                reader.source.fused_axpy2(self.j, self.n, self.tile, y, out_w,
                                          y[::-1].copy(), out)
            return _bits(out), _bits(out_w)

        reference = TileReader(_NumpyRows(np.ascontiguousarray(decoded.T)),
                               self.j, self.n, "numpy")
        reader, accs = self._reader(kind, backend, vectors, decoded)
        tracer = Tracer()
        for acc in accs:  # a basis gives all its slots one tracer
            acc.set_tracer(tracer)
        assert run(reader) == run(reference)
        if accs:
            assert _accessor_bill(tracer) == _accessor_bill(bill)


class TestHostileInputs:
    """Behind a C call a wrong-shaped operand would be an out-of-bounds
    read, so every operand is checked where Python hands over to the
    kernels: a named ``ValueError``, on both backends alike."""

    n, j = 100, 3

    def _readers(self, backend):
        rng = np.random.default_rng(0)
        cache = np.asfortranarray(rng.standard_normal((self.n, self.j + 1)))
        accs = [make_accessor("frsz2_32", self.n, backend=backend)
                for _ in range(self.j)]
        for r, acc in enumerate(accs):
            acc.write(cache[:, r])
        return (CachedTileReader(cache, self.j, backend),
                StreamingTileReader(accs, self.j, backend))

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("bad_w", [
        np.zeros(99), np.zeros(101), np.zeros((100, 1)),
        np.zeros(100, dtype=np.float32), np.zeros(200)[::2], [0.0] * 100,
    ], ids=["short", "long", "2d", "float32", "strided", "list"])
    def test_wrong_w_is_a_named_error(self, backend, bad_w):
        for reader in self._readers(backend):
            with pytest.raises(ValueError, match="w must be"):
                dot_basis_fused(reader, bad_w, 32)
            with pytest.raises(ValueError, match="w must be"):
                axpy_fused(reader, np.ones(self.j), bad_w, 32)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_read_only_w_is_an_error_before_it_is_written(self, backend):
        frozen = np.ones(self.n)
        frozen.flags.writeable = False
        for reader in self._readers(backend):
            with pytest.raises(ValueError, match="writable|read-only"):
                axpy_fused(reader, np.ones(self.j), frozen, 32)
        np.testing.assert_array_equal(frozen, np.ones(self.n))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_wrong_y_and_tile_are_named_errors(self, backend):
        w = np.zeros(self.n)
        for reader in self._readers(backend):
            with pytest.raises(ValueError, match="at least j=3"):
                combine_fused(reader, np.ones(2), 32)
            with pytest.raises(ValueError, match="y must be"):
                axpy_fused(reader, np.ones(3, dtype=np.float32), w, 32)
            with pytest.raises(ValueError, match="y must be"):
                axpy_fused(reader, np.ones(6)[::2], w, 32)
            with pytest.raises(ValueError, match="tile_elems"):
                dot_basis_fused(reader, w, 0)
            with pytest.raises(ValueError, match="tile_elems"):
                axpy_fused(reader, np.ones(3), w, 0)
            # a longer y is fine: the leading j coefficients apply
            np.testing.assert_array_equal(
                combine_fused(reader, np.array([1.0, 2.0, 3.0, 99.0]), 32),
                combine_fused(reader, np.array([1.0, 2.0, 3.0]), 32))

    def test_more_rows_than_the_cache_holds(self):
        with pytest.raises(ValueError, match="cache must be"):
            CachedTileReader(np.zeros((10, 2), order="F"), 3)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_wrong_blocks_are_named_errors(self, backend):
        cached, streaming = self._readers(backend)
        batch = BatchTileReader([cached, streaming])
        good = np.zeros((self.n, 2), order="F")
        Y = np.zeros((self.j, 2), order="F")
        for bad in (np.zeros((self.n, 2)), np.zeros((99, 2), order="F"),
                    np.zeros((self.n, 2), dtype=np.float32, order="F")):
            with pytest.raises(ValueError, match="W must be"):
                dot_basis_batch(batch, bad, [0, 1], 32)
            with pytest.raises(ValueError, match="W must be"):
                axpy_batch(batch, Y, bad, [0, 1], 32)
        for bad in (np.zeros((2, self.j)).T[:, ::-1], np.zeros((2, 2), order="F"),
                    np.zeros((self.j, 1), order="F")):
            with pytest.raises(ValueError, match="Y must"):
                axpy_batch(batch, bad, good, [0, 1], 32)

    @requires_jit
    def test_the_engine_checks_what_it_hands_to_c(self):
        """The compiled kernels' boundary, in the two layers that own it:
        the fused functions check every operand they are handed (and make
        ``h`` and the work buffer themselves), the source's ``_walk``
        checks ``j`` and ``n`` against the rows it really holds — both
        before any pointer reaches C."""
        from repro.jit import load_engine

        engine = load_engine()
        cached, streaming = self._readers("jit")
        rows = np.zeros((4, self.n))
        w, y = np.zeros(self.n), np.ones(self.j)
        frozen = np.zeros(self.n)
        frozen.flags.writeable = False

        def depth(reader, j, n=self.n):  # the same source, asked for more
            return TileReader(reader.source, j, n, "jit")

        dot_basis_fused(streaming, w, 32)
        for call in (
            lambda: dot_basis_fused(depth(cached, self.j + 2), w, 32),
            lambda: dot_basis_fused(depth(cached, self.j, self.n + 1), np.zeros(101), 32),
            lambda: dot_basis_fused(cached, w[:50], 32),
            lambda: dot_basis_fused(cached, w, 0),
            lambda: engine.dense_rows(rows[:, ::2]),
            lambda: engine.dense_rows(rows.astype(np.float32)),
            lambda: engine.dense_rows(rows[0]),
            lambda: dot_basis_fused(depth(streaming, self.j, 64), np.zeros(64), 32),
            lambda: dot_basis_fused(depth(streaming, self.j + 1), w, 32),
            lambda: axpy_fused(cached, y[:2], w, 32),
            lambda: axpy_fused(cached, y, w[:99], 32),
            lambda: axpy_fused(streaming, y, np.zeros(self.n)[:50], 32),
            lambda: axpy_fused(depth(streaming, self.j, 64), y, np.zeros(64), 32),
        ):
            with pytest.raises(ValueError):
                call()
        with pytest.raises(ValueError, match="writable"):
            axpy_fused(cached, y, frozen, 32)
        # the partials of both operands and, for a compressed source, its
        # decoded tiles live in a buffer the source keeps
        streaming.source.fused_dot2(self.j, self.n, 32, w, w, np.zeros(self.j),
                                    np.zeros(self.j))
        table = streaming.source.table
        assert table._work.size == 2 * self.j * engine.fused_round + (
            engine.threads * 32)
        x = np.zeros(self.n)
        for call in (
            lambda: table.fused_dot2(0, self.n, 32, w, x, np.zeros(0), np.zeros(0)),
            lambda: table.fused_axpy2(self.j + 1, self.n, 32, np.ones(4), x,
                                      np.ones(4), np.zeros(self.n)),
            lambda: table.fused_axpy2(self.j, 64, 32, y, np.zeros(64), y,
                                      np.zeros(64)),
        ):
            with pytest.raises(ValueError):
                call()
        np.testing.assert_array_equal(frozen, np.zeros(self.n))

    @requires_jit
    def test_container_arrays_must_match_their_layout(self):
        """Row pointers are only made for arrays the layout describes."""
        from repro.jit import load_engine

        acc = make_accessor("frsz2_32", self.n, backend="jit")
        acc.write(np.ones(self.n))
        comp = acc.compressed
        comp.payload = comp.payload[:-1]
        with pytest.raises(ValueError, match="block layout"):
            load_engine().row_pointers(comp)


class TestNoBlasInFused:
    """ROADMAP item 1, as code: no BLAS call left inside ``repro.fused``.

    A ``@``, ``np.dot``, ``matmul`` or ``einsum`` would hand the
    accumulation order back to whatever kernel the host's BLAS picks.
    """

    def test_no_matmul_node_or_call(self):
        root = Path(repro.fused.__file__).parent
        modules = sorted(root.glob("*.py"))
        assert len(modules) >= 3
        for path in modules:
            for node in ast.walk(ast.parse(path.read_text())):
                assert not isinstance(node, ast.MatMult), f"@ in {path.name}"
                if isinstance(node, ast.Call):
                    func = node.func
                    name = getattr(func, "attr", getattr(func, "id", None))
                    assert name not in {"dot", "vdot", "matmul", "einsum",
                                        "tensordot", "inner"}, (
                        f"{name}() in {path.name}:{node.lineno}")


class TestReaderBitIdentity:
    """Cached and streaming tile readers deliver identical values, so
    every fused kernel is bit-identical between them."""

    @pytest.mark.parametrize("storage", STORAGES)
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 300), j=st.integers(1, 4))
    @settings(max_examples=10, deadline=None)
    def test_kernels_bit_identical(self, storage, seed, n, j):
        rng = np.random.default_rng(seed)
        cached, streaming = _filled_bases(n, j, storage, rng, tile_elems=64)
        assert cached.tile_elems == streaming.tile_elems
        w = rng.standard_normal(n)
        y = rng.standard_normal(j)
        t = _unit(rng.standard_normal(n))
        for c, s in zip(cached.step(j, t, w, 0.7), streaming.step(j, t, w, 0.7)):
            np.testing.assert_array_equal(c, s)
        np.testing.assert_array_equal(
            cached.combine(j, y), streaming.combine(j, y)
        )
        for i in range(j):
            np.testing.assert_array_equal(
                cached.vector(i), streaming.vector(i)
            )

    def test_batched_frsz2_tile_read_equals_per_vector(self):
        rng = np.random.default_rng(11)
        n, j = 260, 3
        accs = [make_accessor("frsz2_32", n) for _ in range(j)]
        for acc in accs:
            assert isinstance(acc, Frsz2Accessor)
            acc.write(rng.standard_normal(n))
        tiles = Frsz2Tiles.open(accs)
        assert tiles is not None
        for t0, t1 in [(0, 64), (32, 96), (5, 71), (192, 260), (0, n)]:
            out = np.empty((j, t1 - t0))
            tiles.load(t0, t1, out)
            for row, acc in enumerate(accs):
                np.testing.assert_array_equal(out[row], acc.read_tile(t0, t1))

    def test_streaming_reader_mixed_formats_falls_back(self):
        rng = np.random.default_rng(5)
        n = 100
        accs = [make_accessor("frsz2_32", n), make_accessor("float32", n)]
        vals = [rng.standard_normal(n) for _ in accs]
        for acc, v in zip(accs, vals):
            acc.write(v)
        out = np.empty((2, 64))
        assert Frsz2Tiles.open(accs) is None
        reader = StreamingTileReader(accs, 2)
        assert type(reader.source) is _LoadedRows
        reader.source.load(0, 64, out)
        for row, acc in enumerate(accs):
            np.testing.assert_array_equal(out[row], acc.read()[:64])


class TestStreamingReaderSemantics:
    """What a :class:`StreamingTileReader` promises with a pointer table
    in play: it decodes what is stored *now*, it never outlives the
    arrays it points into, every ineligible basis takes the per-accessor
    route with the same bits, and the traffic bill does not change."""

    @staticmethod
    def _basis(mode, backend, n=300, storage="frsz2_32", factory=None,
               tracer=None):
        rng = np.random.default_rng(3)
        basis = KrylovBasis(n, 3, storage, basis_mode=mode, tile_elems=64,
                            backend=backend, storage_factory=factory,
                            tracer=tracer)
        vectors = rng.standard_normal((n, 3))
        return basis, vectors, rng.standard_normal(n)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_payload_flip_between_calls_is_seen(self, backend):
        basis, vectors, w = self._basis("streaming", backend)
        for i in range(3):
            basis.write_vector(i, vectors[:, i])
        held = basis._reader(3)  # one table, alive across the flip
        before = dot_basis_fused(basis._rows(3), w, 64)
        np.testing.assert_array_equal(dot_basis_fused(held, w, 64), before)
        basis.accessors[1].compressed.payload[70] ^= np.uint32(1 << 30)
        after = dot_basis_fused(basis._rows(3), w, 64)
        assert after[1] != before[1]
        assert after[0] == before[0] and after[2] == before[2]
        # the flipped payload decoded afresh, by any route
        np.testing.assert_array_equal(dot_basis_fused(held, w, 64), after)
        expect = np.array([acc.read() for acc in basis.accessors[:3]])
        scratch = np.empty((3, 64))
        held.source.load(64, 128, scratch)  # either source's own loader
        np.testing.assert_array_equal(scratch, expect[:, 64:128])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_reader_outlives_reset_and_set_storage(self, backend):
        import gc

        basis, vectors, w = self._basis("streaming", backend)
        for i in range(3):
            basis.write_vector(i, vectors[:, i])
        held = basis._reader(3)
        before = dot_basis_fused(held, w, 64)
        basis.reset()  # drops every accessor's container
        gc.collect()
        churn = [np.full(300, 7, dtype=np.uint32) for _ in range(64)]
        np.testing.assert_array_equal(dot_basis_fused(held, w, 64), before)
        basis.set_storage("frsz2_16")  # replaces the accessors themselves
        gc.collect()
        np.testing.assert_array_equal(dot_basis_fused(held, w, 64), before)
        del churn
        # a reader opened now sees the emptied basis, not the old bits
        basis.write_vector(0, vectors[:, 0])
        assert dot_basis_fused(basis._rows(1), w, 64)[0] != before[0]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "case", ["plain", "mixed", "unwritten", "wrapped", "float32"])
    def test_every_route_matches_cached_mode(self, backend, case):
        """plain: FRSZ2 rows decoded inside the one C call (jit) or one
        codec pass per tile (numpy); mixed formats (from a storage
        factory), an unwritten slot, a fault-injecting wrapper and dense
        float32 storage: per-accessor ``read_tile`` into a scratch the
        same kernels reduce.  Every route, and a batch column of it, is
        the scalar oracle's bits."""
        from repro.robust import FaultInjector, FaultyAccessor

        def wrapping(fmt, n, count=iter(range(8))):
            acc = make_accessor(fmt, n, backend=backend)
            if next(count) % 4 == 1:  # slot 1 of each basis
                return FaultyAccessor(acc, FaultInjector(0.0, 0), "readout_nan")
            return acc

        def mixing(fmt, n, count=iter(range(8))):  # slot 1: frsz2_16
            return make_accessor("frsz2_16" if next(count) % 4 == 1 else fmt,
                                 n, backend=backend)

        results, readers = [], []
        y = np.array([0.5, -2.0, 0.25])
        for mode in BASIS_MODES:
            tracer = Tracer()
            basis, vectors, w = self._basis(
                mode, backend,
                storage="float32" if case == "float32" else "frsz2_32",
                factory={"wrapped": wrapping, "mixed": mixing}.get(case),
                tracer=tracer,
            )
            for i in (0, 2) if case == "unwritten" else (0, 1, 2):
                basis.write_vector(i, vectors[:, i])
            if mode == "streaming":
                one_call = Frsz2Tiles.open(basis.accessors[:3]) is not None
                assert one_call == (case == "plain")
            results.append((
                dot_basis_fused(basis._rows(3), w, 64), basis.combine(3, y),
                axpy_fused(basis._rows(3), y, w.copy(), 64),
                tracer.counters.get("accessor.tile_reads", 0),
                tracer.counters.get("accessor.bytes_read", 0),
            ))
            readers.append(basis._reader(3))
            stored = [basis.accessors[i].read() for i in range(3)]
        cached, streaming = results
        for c, s in zip(cached[:3], streaming[:3]):
            np.testing.assert_array_equal(c, s)
        tiles = len(tile_grid(300, 64))
        if case != "wrapped":  # a wrapper bills nothing to the basis tracer
            assert streaming[3] == 3 * 3 * tiles
        if case == "plain":
            # 33 bits per value: 3 slots x 3 fused calls x 300 values,
            # whole blocks
            assert streaming[4] == 3 * 3 * (10 * 132)
        # a batch whose columns are the two modes' readers
        W = np.asfortranarray(np.stack([w, w, w], axis=1))
        batch = BatchTileReader(readers)
        H = dot_basis_batch(batch, W, [0, 2], 64)
        axpy_batch(batch, np.asfortranarray(np.stack([y, y], axis=1)), W, [0, 2], 64)
        for col, h in zip((0, 2), H.T):
            np.testing.assert_array_equal(h, cached[0])
            np.testing.assert_array_equal(W[:, col], cached[2])
        np.testing.assert_array_equal(W[:, 1], w)
        # ... and all of it is the written order
        assert _bits(cached[0]) == _bits(oracle_dot(stored, w, 64))
        assert _bits(cached[1]) == _bits(oracle_axpy(stored, y, np.zeros(300), True))
        assert _bits(cached[2]) == _bits(oracle_axpy(stored, y, w, False))

    def test_subclass_is_not_read_behind_its_back(self):
        """The eligibility hole: a subclass overriding ``read_tile`` must
        be served by its override, not by a direct ``_compressed`` read."""

        class Doubling(Frsz2Accessor):
            def read_tile(self, i0, i1):
                return 2.0 * super().read_tile(i0, i1)

        rng = np.random.default_rng(2)
        accs = [Frsz2Accessor(100), Doubling(100)]
        vals = [rng.standard_normal(100) for _ in accs]
        for acc, v in zip(accs, vals):
            acc.write(v)
        assert Frsz2Tiles.open(accs) is None
        out = np.empty((2, 64))
        StreamingTileReader(accs, 2).source.load(0, 64, out)
        np.testing.assert_array_equal(out[0], accs[0].read()[:64])
        np.testing.assert_array_equal(out[1], 2.0 * accs[0].codec.decompress(
            accs[1].compressed)[:64])

    @requires_jit
    def test_traffic_and_counters_of_one_streaming_solve(self):
        """The ``stream_lowmem`` benchmark system (atmosmodd 24^3,
        frsz2_32, m=50): the bill of one solve.  The ``basis.*`` side
        bills the walks the steps made — the dot and the axpy of width two
        on the 116 steps that have stored rows, and the two of each cycle's
        close — the decode of each vector a step stored, and the update's
        walks; the accessor side counts what was really decoded, and the
        two agree byte for byte."""
        from repro.observe import Tracer
        from repro.sparse import generators

        a = generators.convection_diffusion_3d(
            24, 24, 24, peclet=(0.45, 0.25, 0.10), shift=0.02, name="atmosmodd"
        )
        s = np.sin(np.arange(a.shape[0], dtype=np.float64))
        b = a.matvec(s / np.linalg.norm(s))
        made = []

        def factory(fmt, n):
            made.append(make_accessor(fmt, n, backend="jit"))
            return made[-1]

        tracer = Tracer()
        result = CbGmres(
            a, "frsz2_32", m=50, max_iter=2000, basis_mode="streaming",
            backend="jit", tracer=tracer, storage_factory=factory,
        ).solve(b, 1e-12)
        assert result.converged and result.iterations == 119
        assert result.stats.fused_tiles == 1687
        assert result.stats.reorthogonalizations == 116
        assert len(made) > 0 and "accessor.reads" not in tracer.counters
        expected = {
            "accessor.tile_reads": 39312,
            "accessor.bytes_read": 326063232,
            "accessor.writes": 119,
            "accessor.bytes_written": 6785856,
            "basis.vector_reads": 5718,
            "basis.bytes_read": 326063232,
            "basis.fused.walks": 2 * 116 + 2 * 3 + 3,
            "basis.fused.tiles": 1687,
            "basis.fused.values": 77400576,
        }
        assert {k: tracer.counters[k] for k in expected} == expected


class TestArnoldiBitIdentity:
    """One DCGS2 Arnoldi step produces identical Hessenberg entries."""

    @pytest.mark.parametrize("storage", STORAGES)
    def test_hessenberg_entries_identical(self, storage):
        rng = np.random.default_rng(23)
        n, j = 400, 5
        cached, streaming = _filled_bases(n, j, storage, rng, m=j + 1)
        w = rng.standard_normal(n)
        rc = cgs_orthogonalize(cached, j, w.copy(), eta=0.7)
        rs = cgs_orthogonalize(streaming, j, w.copy(), eta=0.7)
        np.testing.assert_array_equal(rc.h, rs.h)
        assert rc.h_next == rs.h_next
        assert (rc.breakdown, rc.loss_of_orthogonality) == (
            rs.breakdown, rs.loss_of_orthogonality)
        np.testing.assert_array_equal(rc.w, rs.w)


class TestSolverBitIdentity:
    """Full CB-GMRES solves agree bitwise between basis modes."""

    @pytest.mark.parametrize("storage", STORAGES)
    def test_solutions_and_histories_identical(self, storage):
        p = make_problem("lung2", "smoke")
        results = {}
        for mode in BASIS_MODES:
            solver = CbGmres(p.a, storage, m=25, max_iter=400, basis_mode=mode)
            results[mode] = solver.solve(p.b, p.target_rrn, record_history=True)
        rc, rs = results["cached"], results["streaming"]
        assert rc.converged and rs.converged
        assert rc.iterations == rs.iterations
        np.testing.assert_array_equal(rc.x, rs.x)
        assert [(s.iteration, s.rrn, s.kind) for s in rc.history] == [
            (s.iteration, s.rrn, s.kind) for s in rs.history
        ]


class TestStepIsThePythonBody:
    """``KrylovBasis.step`` on a compiled source is one C call; its
    reference is ``step_rows``, the Python body every other source runs.
    Forcing the body onto the compiled sources moves no bit of a solve on
    any rung, and the step bills the kernels of Fig. 1 it stands for."""

    RUNGS = ["float64", "float32", "float16", "frsz2_16", "frsz2_21",
             "frsz2_32", "adaptive"]

    @staticmethod
    def _solve(p, storage, mode, backend):
        tracer = Tracer()
        r = CbGmres(p.a, storage, m=20, max_iter=300, basis_mode=mode,
                    backend=backend, tracer=tracer).solve(
                        p.b, p.target_rrn, record_history=True)
        fused = {k: v for k, v in vars(r.stats).items() if k.startswith("fused_")}
        counters = {k: v for k, v in tracer.counters.items()
                    if k.startswith(("basis.", "accessor."))}
        history = np.array([s.rrn for s in r.history])
        return (r.iterations, r.x.tobytes(), history.tobytes(), fused, counters,
                r.stats.reorthogonalizations, r.stats.cycles)

    @requires_jit
    @pytest.mark.parametrize("mode", BASIS_MODES)
    @pytest.mark.parametrize("storage", RUNGS)
    def test_forced_body_gives_the_same_solve(self, monkeypatch, storage, mode):
        from repro.jit import cbackend

        p = make_problem("atmosmodd", "smoke")
        compiled = self._solve(p, storage, mode, "jit")
        monkeypatch.setattr(cbackend._Rows, "step", repro.fused.step_rows)
        assert self._solve(p, storage, mode, "jit") == compiled
        assert self._solve(p, storage, mode, "numpy") == compiled

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("mode", BASIS_MODES)
    @pytest.mark.parametrize("storage", ["frsz2_32", "float64"])
    def test_the_bill_of_the_three_walks(self, storage, mode, backend):
        """A step bills the walks it made — the dot and the axpy of width
        two, ``k`` vectors each, whatever its flags — to the basis counters
        and to each accessor alike; the vector it finishes is written to
        slot ``k`` and, streaming, decoded once more (one more vector read:
        the column is made from what was stored); before anything is
        stored it walks nothing.  Its bits are the Python body's over the
        decoded rows."""
        rng = np.random.default_rng(7)
        n, k, tile, eta = 3000, 5, 512, 2.0 ** -0.5
        tiles = -(-n // tile)
        twins = [(KrylovBasis(n, 8, storage, tracer=tracer, basis_mode=mode,
                              tile_elems=tile, backend=backend), tracer)
                 for tracer in (Tracer(), Tracer())]
        vectors = rng.standard_normal((k, n))
        vectors /= np.linalg.norm(vectors, axis=1)[:, None]
        for i, v in enumerate(vectors):
            for basis, _ in twins:
                basis.write_vector(i, v)
        (basis, tracer), (twin, one_walk) = twins
        rows = np.ascontiguousarray(basis.matrix(k).T)
        one_walk.reset()
        dot_basis_fused(twin._rows(k), vectors[0], tile)
        stored = basis.stored_vector_nbytes
        streaming = mode == "streaming"
        for t, w, want in ((_unit(rng.standard_normal(n)), rng.standard_normal(n), 0),
                           # mostly along a stored vector: rho < eta
                           (_unit(vectors[0] + 0.3 * _unit(rng.standard_normal(n))),
                            rng.standard_normal(n), repro.fused.STEP_LOSS)):
            tracer.reset()
            basis.fused_log = FusedOpLog()
            flags, q, v, a, b, rho, h_next, _ = basis.step(k, t, w, eta)
            counters, spans = dict(tracer.counters), list(tracer.spans)
            wrote = not flags
            after = _NumpyRows(np.vstack([rows, basis.vector(k)])) if wrote else None
            ref = _step_outputs(_NumpyRows(rows), k, n, tile, t, w, eta, after)
            assert flags == ref[0] == want
            assert (_bits(v), _bits(a), _bits(b)) == ref[2:5]
            # a vector the step did not store is not handed out
            assert (_bits(q) == ref[1]) if wrote else q is None
            assert _bits([rho, h_next]) == ref[5][:2]
            walks = step_walks(k)
            assert walks == 2 and basis.fused_log.tiles == walks * tiles
            read = walks * k + (wrote and streaming)
            assert {c: x for c, x in counters.items()
                    if c.startswith("basis.")} == {
                "basis.fused.walks": walks,
                "basis.fused.tiles": walks * tiles,
                "basis.fused.values": walks * k * n,
                "basis.vector_reads": read,
                "basis.bytes_read": read * stored,
            }
            bill = {c: x for c, x in counters.items() if c.startswith("accessor.")}
            walked = _accessor_bill(one_walk)
            refresh = wrote and not (streaming or storage == "float64")
            assert bill.get("accessor.tile_reads", 0) == (
                walks * walked.get("accessor.tile_reads", 0) + (wrote and streaming))
            assert bill.get("accessor.bytes_read", 0) == walks * walked.get(
                "accessor.bytes_read", 0) + (
                    stored if refresh or wrote and streaming else 0)
            assert bill.get("accessor.reads", 0) == refresh
            assert bill.get("accessor.writes", 0) == wrote
            # the walks' time: one basis_read record, not one per walk
            reads = [r for r in spans if r.name == "basis_read"]
            assert len(reads) == 1 and reads[0].seconds > 0.0
        tracer.reset()
        basis.step(0, vectors[0], w, eta)
        assert step_walks(0) == 0 and not any(
            c.startswith("basis.fused.") for c in tracer.counters)

    def test_step_checks_its_depth_and_operand(self):
        from repro.solvers import GivensLeastSquares

        basis = KrylovBasis(64, 4, "float64")
        basis.write_vector(0, np.eye(64)[0])
        t = np.eye(64)[1]
        with pytest.raises(ValueError, match="vectors of 64"):
            basis.step(1, t, np.ones(63), 0.7)
        with pytest.raises(ValueError, match="vectors of 64"):
            basis.step(1, np.ones(63), np.ones(64), 0.7)
        for k, lsq in ((-1, None), (5, None), (1, GivensLeastSquares(4, 1.0)),
                       (4, GivensLeastSquares(4, 1.0))):
            if k == 1:
                lsq.append_column(np.ones(1), 1.0)  # holds 1 column, not 0
            with pytest.raises(ValueError, match="step"):
                basis.step(k, t, np.ones(64), 0.7, lsq)
        with pytest.raises(IndexError):
            basis.step(2, t, np.ones(64), 0.7)  # slot 1 is not written

    @requires_jit
    def test_the_compiled_step_refuses_a_givens_state_it_would_overrun(self):
        from repro.jit import dispatch

        rows = dispatch.load_engine().dense_rows(np.eye(4, 64))
        for state in (np.zeros(20), repro.fused.givens_state(3),
                      repro.fused.givens_state(4).astype(np.float32)):
            with pytest.raises(ValueError, match="least-squares state"):
                rows.step(3, 64, 64, np.eye(64)[5], np.ones(64), 0.7, state,
                          np.empty(64), np.empty(64), np.empty(3), np.empty(4),
                          np.zeros(6))
            with pytest.raises(ValueError, match="least-squares state"):
                rows.column(3, 64, 64, np.empty(64), np.ones(64), np.ones(64), 3,
                            0.7, False,
                            state, np.zeros(3), np.zeros(4), np.zeros(6))


class TestStreamingMemory:
    """The streaming mode's reason to exist: O(tile) float64, not O(n*m)."""

    def test_streaming_never_allocates_dense_basis(self):
        n, m = 4096, 40
        basis = KrylovBasis(n, m, "frsz2_32", basis_mode="streaming")
        assert basis._cache is None
        rng = np.random.default_rng(0)
        for i in range(m):
            basis.write_vector(i, rng.standard_normal(n))
        basis.step(m, _unit(rng.standard_normal(n)), rng.standard_normal(n), 0.7)
        basis.combine(m, rng.standard_normal(m))
        dense_bytes = n * (m + 1) * 8
        assert basis.peak_float64_bytes > 0
        assert basis.peak_float64_bytes <= m * basis.tile_elems * 8
        assert basis.peak_float64_bytes < dense_bytes
        # scratch is (j, tile): growing n does not grow the working set
        assert basis.peak_float64_bytes == basis.fused_log.peak_scratch_bytes

    @requires_jit
    def test_sweep_reports_its_real_buffers(self):
        """The compiled step's walks keep, per thread of the pool, one
        decoded row tile, and one round of ``2 j`` tile partials (both
        operands'), whatever ``n`` is — in a work buffer the basis keeps,
        sized for all ``m + 1`` slots and counted in its peak whether or
        not a call has used all of it; the axpy of width two keeps none."""
        from repro.jit import load_engine

        engine = load_engine()
        m = 50
        used, peaks = [], []
        for n in (4096, 16384):
            basis = KrylovBasis(n, m, "frsz2_32", basis_mode="streaming",
                                backend="jit")
            rng = np.random.default_rng(0)
            for i in range(m):
                basis.write_vector(i, rng.standard_normal(n))
            basis.step(m, _unit(rng.standard_normal(n)), rng.standard_normal(n), 0.7)
            basis.combine(m, rng.standard_normal(m))
            used.append(basis.fused_log.peak_scratch_bytes)
            peaks.append(basis.peak_float64_bytes)
        decoded = engine.threads * basis.tile_elems
        # what the k = 50 call used
        assert used == [8 * (2 * engine.fused_round * m + decoded)] * 2
        assert peaks == [8 * (2 * engine.fused_round * (m + 1) + decoded)] * 2

    def test_cached_mode_reports_dense_footprint(self):
        basis = KrylovBasis(1000, 30, "frsz2_32", basis_mode="cached")
        assert basis.peak_float64_bytes == 1000 * 31 * 8

    def test_solver_stats_report_per_mode_footprint(self):
        p = make_problem("lung2", "smoke")
        n, m = p.a.n, 25
        stats = {}
        for mode in BASIS_MODES:
            r = CbGmres(p.a, "frsz2_32", m=m, max_iter=400, basis_mode=mode)
            stats[mode] = r.solve(p.b, p.target_rrn).stats
            assert stats[mode].basis_mode == mode
            assert stats[mode].fused_tiles > 0
        assert stats["cached"].basis_peak_float64_bytes == n * (m + 1) * 8
        assert stats["streaming"].basis_peak_float64_bytes < n * (m + 1) * 8

    def test_tile_rounds_up_to_block_granularity(self):
        basis = KrylovBasis(500, 5, "frsz2_32", basis_mode="streaming", tile_elems=33)
        assert basis.tile_elems % 32 == 0
        assert basis.tile_elems >= 33
        b64 = KrylovBasis(500, 5, "float64", tile_elems=33)
        assert b64.tile_elems == 33  # float64 has no block granularity


class TestResetIsolation:
    """reset() and set_storage() clear the accessor payloads and fence
    the cached view: its old columns stay as they were, and no read —
    step, combine, vector, matrix, an accessor's — reaches them."""

    n, m = 200, 3

    def _assert_as_fresh(self, basis, slots, vectors, w):
        """``basis`` after writing ``slots`` is a basis built now and
        given the same writes, as raw bytes, through every read."""
        storage, mode = basis.storage, basis.basis_mode
        fresh = KrylovBasis(self.n, self.m, storage, basis_mode=mode,
                            tile_elems=basis.tile_elems, backend=basis.backend)
        for each in (basis, fresh):
            for i in slots:
                each.write_vector(i, vectors[:, i])
        j = slots[-1] + 1
        y = np.linspace(-1.5, 2.0, j)
        got, want = [], []
        t = _unit(w[::-1].copy())
        for each, reads in ((basis, got), (fresh, want)):
            flags, *arrays = each.step(j, t, w, 0.7)
            reads += [flags, *map(_bits, arrays), _bits(each.combine(j, y)),
                      _bits(each.matrix(j))]
            for i in range(j):
                acc = each.accessors[i]
                reads += [_bits(each.vector(i)), _bits(acc.read()),
                          _bits(acc.read_tile(64, 128)),
                          _bits(acc.read_into(np.empty(self.n)))]
        assert got == want
        if slots == (0, 2):  # the skipped slot is inside the fence: zeros
            assert _bits(basis.vector(1)) == _bits(np.zeros(self.n))

    @pytest.mark.parametrize("storage", STORAGES)
    @pytest.mark.parametrize("mode", BASIS_MODES)
    def test_no_stale_bits_after_reset(self, storage, mode):
        rng = np.random.default_rng(9)
        n, m = self.n, self.m
        vectors = rng.standard_normal((n, m + 1))
        w = rng.standard_normal(n)
        backends = ("numpy", "jit") if dispatch.jit_available() else ("numpy",)
        for backend in backends:
            for forget in ("reset", "set_storage"):
                for slots in ((0, 1, 2), (0, 2)):
                    basis = KrylovBasis(n, m, storage, basis_mode=mode,
                                        tile_elems=64, backend=backend)
                    for i in range(m + 1):
                        basis.write_vector(i, rng.standard_normal(n))
                    if forget == "reset":
                        basis.reset()
                    else:
                        basis.set_storage(storage)  # fresh accessors
                    with pytest.raises(IndexError):
                        basis.vector(0)
                    # the accessor payload itself is gone, not just fenced
                    np.testing.assert_array_equal(
                        basis.accessors[0].read(), np.zeros(n)
                    )
                    if mode == "cached":
                        # what the fence keeps out must never be read
                        basis._cache[:, basis._written:] = np.nan
                    self._assert_as_fresh(basis, slots, vectors, w)

    def test_fused_log_counts_accumulate(self):
        rng = np.random.default_rng(1)
        basis = KrylovBasis(300, 4, "frsz2_16", basis_mode="streaming", tile_elems=64)
        for i in range(3):
            basis.write_vector(i, rng.standard_normal(300))
        log = basis.fused_log
        assert isinstance(log, FusedOpLog)
        tiles = len(tile_grid(300, basis.tile_elems))
        basis.step(3, _unit(rng.standard_normal(300)), rng.standard_normal(300), 0.7)
        walks = step_walks(3)
        assert walks == 2 and log.tiles == walks * tiles
        basis.combine(3, rng.standard_normal(3))
        assert log.tiles == (walks + 1) * tiles


class TestKeptSource:
    """A basis keeps what its fused calls walk — the mirror's rows, or one
    engine table extended by every write — and checks per call only that
    the leading slots are still what was proved when they were written.
    Whatever happens to a slot behind the basis's back, the next fused
    call is the bits of a reader constructed from scratch."""

    n, m, tile = 300, 6, 64

    def _basis(self, mode, backend, storage="frsz2_32", written=(0, 1, 2, 3)):
        rng = np.random.default_rng(17)
        basis = KrylovBasis(self.n, self.m, storage, basis_mode=mode,
                            tile_elems=self.tile, backend=backend)
        vectors = rng.standard_normal((self.n, self.m + 1))
        for i in written:
            basis.write_vector(i, vectors[:, i])
        return basis, vectors, rng.standard_normal(self.n)

    def _assert_fresh(self, basis, j, w):
        """Both reads of ``basis`` at depth ``j`` — the step and the
        combine — and each walk of the reader they take, against the same
        over a reader built now, as raw uint64."""
        n, tile, y = self.n, self.tile, np.linspace(-1.5, 2.0, j)
        kept, fresh = basis._rows(j), basis._reader(j)
        t = _unit(w[::-1].copy())
        # the step's walks (its first half: a step writes its slot)
        assert _step_outputs(kept.source, j, n, tile, t, w, 0.7, half=True) == \
            _step_outputs(fresh.source, j, n, tile, t, w, 0.7, half=True)
        pairs = [
            (basis.combine(j, y), combine_fused(fresh, y, tile)),
            (dot_basis_fused(kept, w, tile), dot_basis_fused(fresh, w, tile)),
            (axpy_fused(kept, y, w.copy(), tile), axpy_fused(fresh, y, w.copy(), tile)),
        ]
        for got, want in pairs:
            assert _bits(got) == _bits(want)
        assert _walks_of_width_two(kept, j, n, tile, w, t, y, y[::-1].copy()) == \
            _walks_of_width_two(fresh, j, n, tile, w, t, y, y[::-1].copy())

    @staticmethod
    def _wrap(basis, vectors):
        from repro.robust import FaultInjector, FaultyAccessor

        basis.accessors[1] = FaultyAccessor(
            basis.accessors[1], FaultInjector(0.0, 0), "readout_nan")

    @staticmethod
    def _direct_write(basis, vectors):
        basis.accessors[1].write(vectors[:, 5])

    @staticmethod
    def _set_storage(basis, vectors):
        basis.set_storage("frsz2_16")
        for i in range(4):
            basis.write_vector(i, vectors[:, i])

    @staticmethod
    def _float32_slot(basis, vectors):
        basis.accessors[2] = make_accessor("float32", basis.n, backend=basis.backend)
        basis.write_vector(2, vectors[:, 2])

    @staticmethod
    def _reset(basis, vectors):
        basis.reset()
        for i in range(4):
            basis.write_vector(i, vectors[:, 6 - i])

    @staticmethod
    def _bit_flip(basis, vectors):
        basis.accessors[1].compressed.payload[70] ^= np.uint32(1 << 30)

    @staticmethod
    def _rewrite_lower(basis, vectors):
        basis.write_vector(1, vectors[:, 4])

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("mode", BASIS_MODES)
    @pytest.mark.parametrize("event", [
        "wrap", "direct_write", "set_storage", "float32_slot", "reset",
        "bit_flip", "rewrite_lower",
    ])
    def test_next_call_equals_a_fresh_reader(self, mode, backend, event):
        basis, vectors, w = self._basis(mode, backend)
        self._assert_fresh(basis, 4, w)  # the kept source is in use
        getattr(self, f"_{event}")(basis, vectors)
        for j in (4, 2, 1):
            self._assert_fresh(basis, j, w)
        # ... and a later write of the slot is walked again
        basis.write_vector(1, vectors[:, 6])
        self._assert_fresh(basis, 4, w)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("mode", BASIS_MODES)
    def test_a_slot_left_unwritten(self, mode, backend):
        basis, vectors, w = self._basis(mode, backend, written=(0, 2, 3))
        self._assert_fresh(basis, 4, w)
        self._assert_fresh(basis, 1, w)

    @requires_jit
    def test_a_bit_flip_is_decoded_through_the_kept_table(self):
        basis, vectors, w = self._basis("streaming", "jit")
        before = dot_basis_fused(basis._rows(4), w, self.tile)
        kept = basis._kept.source
        self._bit_flip(basis, vectors)
        assert kept.covers(basis.accessors, 4)  # same containers, new bits
        after = dot_basis_fused(basis._rows(4), w, self.tile)
        assert after[1] != before[1]
        assert _bits(np.delete(after, 1)) == _bits(np.delete(before, 1))

    @requires_jit
    def test_a_second_engines_pointers_do_not_join_the_table(self, monkeypatch):
        """An engine reloaded mid-cycle hands the next stored container
        pointers of its own: that slot is not bound into the first
        engine's table, and the call falls back."""
        from repro.jit import dispatch, load_engine

        basis, vectors, w = self._basis("streaming", "jit")
        kept = basis._kept.source
        monkeypatch.setattr(dispatch, "_ENGINE", type(load_engine())())
        basis.write_vector(2, vectors[:, 5])
        assert len(kept.accessors) == 2 and not kept.covers(basis.accessors, 3)
        self._assert_fresh(basis, 4, w)
        self._assert_fresh(basis, 2, w)

    @requires_jit
    def test_one_table_per_cycle_extended_by_each_write(self, monkeypatch):
        """m + 1 writes and every fused call between them open one
        source — at the first write — and later cycles open none; the
        table has room for the m + 1 slots and never more rows."""
        opened = []
        real_open = Frsz2Tiles.open.__func__
        monkeypatch.setattr(
            Frsz2Tiles, "open",
            classmethod(lambda cls, *a, **k: opened.append(a) or real_open(cls, *a, **k)),
        )
        basis, vectors, w = self._basis("streaming", "jit", written=())
        for cycle in range(3):
            basis.reset()
            for i in range(self.m + 1):
                basis.write_vector(i, vectors[:, (i + cycle) % (self.m + 1)])
                table = basis._kept.source.table
                assert table.count == i + 1 <= table.capacity == self.m + 1
                basis.combine(i + 1, np.ones(i + 1))
                if i < self.m:
                    basis.step(i + 1, _unit(w), w, 0.7)
            assert len(opened) == 1
        with pytest.raises(IndexError):
            basis.write_vector(self.m + 1, w)
        # the work buffer is kept too: one allocation, sized by m
        work = table._work
        basis.step(3, _unit(w), w, 0.7)
        assert table._work is work
        engine = table._engine
        assert work.size == (self.m + 1) * 2 * engine.fused_round + (
            engine.threads * self.tile)

    def test_numpy_codecs_keep_no_table(self):
        basis, vectors, w = self._basis("streaming", "numpy")
        assert basis._kept.source is None
        self._assert_fresh(basis, 4, w)


@requires_jit
class TestFieldsInRegisters:
    """The aligned rungs (``l`` 16 and 32) decode a block in the registers
    its values feed when the block is exact-scale (``l - 1 <= e_max <=
    2046``), whole in the walk's range and, for a dot, a multiple of eight
    from the tile's start; any other block is decoded through a buffer,
    and its values join the same sums in the same order.  Rows here mix
    both routes — ordinary blocks next to ``e_max = l - 2`` (buffered),
    ``l - 1`` and 2046 (in registers), fields that are ``-0.0`` (sign bit
    only) and ``+0.0`` — over ``n`` of ``1`` and ``31 mod 32`` (a short
    last block), odd and even ``j`` (a dot pass of four rows plus one, or
    of four and four) and tiles that keep every block whole (2048, 96) or
    cut them all (40).  Every walk, the window decode and the Arnoldi step
    are held to the numpy walks over the numpy decode as raw bits, on one
    thread and on the pool's."""

    TILES = (2048, 96, 40)

    @staticmethod
    def _containers(l, n, j, exponents, seed):
        """``j`` hand-made containers: random fields, block exponents drawn
        from ``exponents`` (``(low, high)``, then the special values each
        row must hold), a twentieth of the fields ``-0.0`` and as many
        ``+0.0``."""
        from repro.core.blocks import BlockLayout
        from repro.core.frsz2 import Frsz2Compressed

        rng = np.random.default_rng(seed)
        layout = BlockLayout(n, 32, l)
        (low, high), special = exponents[0], list(exponents[1:])
        comps = []
        for _ in range(j):
            e_max = rng.integers(low, high + 1, layout.num_blocks)
            picked = rng.random(layout.num_blocks) < 0.3
            e_max[picked] = rng.choice(special, int(picked.sum()))
            e_max[:len(special)] = special  # every row holds every one
            e_max[-1] = rng.choice(special)  # the short last block too
            fields = rng.integers(0, 1 << l, layout.payload_size,
                                  dtype=np.uint64)
            marks = rng.random(fields.size)
            fields[marks < 0.05] = 1 << (l - 1)
            fields[marks > 0.95] = 0
            comps.append(Frsz2Compressed(
                layout, e_max.astype(np.int32),
                fields.astype(layout.payload_dtype)))
        return comps

    @staticmethod
    def _sources(comps):
        """The engine's row table and the numpy decode of the same
        containers (also the engine's window decode, held to it)."""
        from repro.core.frsz2 import decode_tile_numpy
        from repro.jit import load_engine

        engine = load_engine()
        n, j = comps[0].layout.n, len(comps)
        rows = np.empty((j, n))
        decode_tile_numpy(comps)(0, n, rows)
        table = engine.row_table(map(engine.row_pointers, comps))
        decoded = np.empty((j, n))
        table(0, n, decoded)
        assert _bits(decoded) == _bits(rows)
        return engine, table, _NumpyRows(rows)

    @staticmethod
    def _on_each_pool(engine, walk):
        """``walk()`` on one thread and on the pool's: the same bits."""
        pool = engine.threads
        try:
            engine.set_threads(1)
            alone = walk()
            engine.set_threads(max(pool, 2))
            assert walk() == alone
        finally:
            engine.set_threads(pool)
        return alone

    @pytest.mark.parametrize("l", [16, 32])
    @pytest.mark.parametrize("n", [32 * 700 + 1, 32 * 700 + 31])
    @pytest.mark.parametrize("j", [5, 8])
    @pytest.mark.parametrize("end", ["bottom", "top"])
    def test_walks_equal_the_numpy_walks(self, l, n, j, end):
        # the bottom of the exponent range (the smallest exact scale, the
        # largest that is not) or its top, each next to ordinary blocks of
        # its own magnitudes; operands scaled to them so that no sum
        # overflows and none is all zeros
        exponents = ([(l, l + 30), l - 2, l - 1] if end == "bottom"
                     else [(2000, 2045), 2046])
        comps = self._containers(l, n, j, exponents, seed=n + j + l)
        engine, table, ref = self._sources(comps)
        top = int(np.frexp(np.abs(ref.rows).max())[1])
        rng = np.random.default_rng(j)
        w_dot = np.ldexp(rng.standard_normal(n), -top)
        y, w = np.ldexp(rng.standard_normal(j), -top - 3), rng.standard_normal(n)
        y_sweep = np.ldexp(rng.standard_normal(j), -top - 40)
        w_sweep = np.ldexp(rng.standard_normal(n), -37)

        for tile in self.TILES:
            h = np.zeros(j)
            ref.fused_dot(j, n, tile, w_dot, h)

            def dot():
                out = np.zeros(j)
                table.fused_dot(j, n, tile, w_dot, out)
                return _bits(out)

            assert self._on_each_pool(engine, dot) == _bits(h)
            # width two: the dot and the axpy each of two operands
            expected = _walks_of_width_two(TileReader(ref, j, n, "numpy"), j, n,
                                           tile, w_dot, w_sweep, y, y_sweep)
            assert self._on_each_pool(engine, lambda: _walks_of_width_two(
                TileReader(table, j, n, "jit"), j, n, tile, w_dot, w_sweep, y,
                y_sweep)) == expected
        for store in (False, True):
            expected = w.copy()
            ref.fused_axpy(j, n, 64, y, expected, store)

            def axpy():
                out = w.copy()
                table.fused_axpy(j, n, 64, y, out, store)
                return _bits(out)

            assert self._on_each_pool(engine, axpy) == _bits(expected)

    @pytest.mark.parametrize("l", [16, 32])
    @pytest.mark.parametrize("n", [32 * 700 + 1, 32 * 700 + 31])
    @pytest.mark.parametrize("j", [5, 8])
    @pytest.mark.parametrize("eta", [0.0, 1e6])
    def test_step_equals_step_rows(self, l, n, j, eta):
        """Rows of norm near one next to both ends of the smallest exact
        scale, under a least-squares state whose column ``j - 1`` is
        tentative; ``eta`` 0 raises no flag, 1e6 a loss of orthogonality
        (the new column is not opened)."""
        comps = self._containers(l, n, j, [(1011, 1016), l - 2, l - 1],
                                 seed=n * j + l)
        engine, table, ref = self._sources(comps)
        rng = np.random.default_rng(n)
        t, w_in = _unit(rng.standard_normal(n)), rng.standard_normal(n)
        m = j + 1
        state = repro.fused.givens_state(m)
        state[:2 * m] = rng.uniform(-1.0, 1.0, 2 * m)  # cs, sn
        views = repro.fused.givens_views(state)
        views[2][0] = 1.0  # g_0
        hess = views[4]
        for c in range(j):
            hess[:c + 1, c] = rng.standard_normal(c + 1)
            hess[c + 1, c] = 0.75

        from repro.core.frsz2 import Frsz2Compressed, decode_tile_numpy

        def step(compiled):
            """The step, then — q stored at the rung, as row j of a table
            of the same layout — its column."""
            q, v, a, b, out = (np.empty(n), np.zeros(n), np.empty(j),
                               np.zeros(j + 1), np.zeros(6))
            live = state.copy()
            flags = (table if compiled else ref).step(
                j, n, 2048, t, w_in, eta, live, q, v, a, b, out)
            if not flags:
                layout = comps[0].layout
                stored = [*comps, Frsz2Compressed(
                    layout, *engine.encode(q, layout, False)[::-1])]
                after = engine.row_table(map(engine.row_pointers, stored))
                if not compiled:
                    rows = np.empty((j + 1, n))
                    decode_tile_numpy(stored)(0, n, rows)
                    after = _NumpyRows(rows)
                flags = after.column(j, n, 2048, np.empty(n), v, w_in, j, eta, False, live, a,
                                     b, out)
            return (flags, _bits(q), _bits(v), _bits(a), _bits(b),
                    _bits(out[[0, 1, 2, 5]]), _bits(live))

        expected = step(False)
        assert expected[0] == (repro.fused.STEP_LOSS if eta > 1 else 0)
        assert self._on_each_pool(engine, lambda: step(True)) == expected
