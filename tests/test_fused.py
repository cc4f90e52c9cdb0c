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
    axpy_dot_fused,
    axpy_fused,
    bill_dot_fused,
    combine_fused,
    dot_basis_batch,
    dot_basis_fused,
    tile_grid,
)
from repro.fused.kernels import TileReader, _LoadedRows, _NumpyRows
from repro.solvers import CbGmres, make_problem
from repro.solvers.basis import BASIS_MODES, KrylovBasis
from repro.solvers.orthogonal import cgs_orthogonalize

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
            # the sweep: the oracle's axpy, then its dot of the result
            # (hostile rows leave 1e300s in w: their products overflow)
            swept = w.copy()
            with np.errstate(over="ignore", invalid="ignore"):
                u = axpy_dot_fused(reader, y, swept, tile)
            updated = oracle_axpy(rows, y, w, False)
            assert _bits(swept) == _bits(updated)
            assert _bits(u) == _bits(oracle_dot(rows, updated, tile))

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
        # the sweep leaves w = +0.0, whose -0.0 products sum to +0.0
        swept = np.full(n, -0.0)
        assert _bits(axpy_dot_fused(reader, y, swept, 32)) == _bits(np.zeros(j))
        assert _bits(swept) == _bits(np.zeros(n))

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


#: reader routes of the sweep: name -> storage of each slot (cycled),
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


class TestSweepIsAxpyThenDot:
    """``axpy_dot_fused`` is *defined* as ``axpy_fused`` followed by
    ``dot_basis_fused``: ``w`` and ``u`` carry those bytes on every
    reader route, tile grid, depth and backend, whether a tile ends on a
    lane group, a piece boundary or neither."""

    #: no tails; ``mod 8`` and ``mod 256`` tails; one piece and a lane group
    SIZES = (512, 523, 264)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("route", sorted(_SWEEP_ROUTES))
    def test_every_route_tile_and_depth(self, backend, route):
        rng = np.random.default_rng(41)
        for n in self.SIZES:
            vectors = rng.standard_normal((n, 50)) / np.sqrt(n)
            w = rng.standard_normal(n)
            for j in (0, 1, 4, 5, 50):
                y = rng.standard_normal(j)
                for tile in (32, 40, 2048, n + 7):
                    reader = _sweep_reader(route, backend, vectors, j)
                    if route == "streaming":
                        one_call = type(reader.source) is Frsz2Tiles
                        assert one_call == (backend == "jit" and j > 0)
                    separate = w.copy()
                    axpy_fused(reader, y, separate, tile)
                    u_separate = dot_basis_fused(reader, separate, tile)
                    swept = w.copy()
                    u = axpy_dot_fused(reader, y, swept, tile)
                    where = f"{route} n={n} j={j} tile={tile}"
                    assert swept.view(np.uint64).tolist() == \
                        separate.view(np.uint64).tolist(), where
                    assert _bits(u) == _bits(u_separate), where

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_routes_agree_with_each_other(self, backend):
        """Same stored values, same bits: the mirror read in place, the
        tile-by-tile cache and the streaming decode of one float64 basis."""
        rng = np.random.default_rng(43)
        n, j = 523, 5
        vectors = rng.standard_normal((n, j))
        w, y = rng.standard_normal(n), rng.standard_normal(j)
        results = []
        for route in ("mirror", "c_order", "float64"):
            swept = w.copy()
            u = axpy_dot_fused(
                _sweep_reader(route, backend, vectors, j), y, swept, 96)
            results.append((_bits(u), _bits(swept)))
        assert results[0] == results[1] == results[2]

    def test_billed_as_the_axpy_alone(self):
        """The counters describe Fig. 1's kernels: the sweep bills its
        axpy, and the dot only when the caller says it was used."""
        from repro.observe import Tracer

        rng = np.random.default_rng(3)
        n, j = 300, 3
        tracer = Tracer()
        basis = KrylovBasis(n, j, "frsz2_32", basis_mode="streaming",
                            tile_elems=64, tracer=tracer)
        for i in range(j):
            basis.write_vector(i, rng.standard_normal(n))
        tracer.reset()
        basis.axpy_dot(j, rng.standard_normal(j), rng.standard_normal(n))
        log = basis.fused_log
        tiles = len(tile_grid(n, 64))
        assert (log.axpy_calls, log.axpy_vectors, log.dot_calls) == (1, j, 0)
        assert (log.tiles, log.values) == (tiles, j * n)
        assert tracer.counters["basis.vector_reads"] == j
        assert tracer.counters["basis.fused.axpy_calls"] == 1
        assert "basis.fused.dot_calls" not in tracer.counters
        # one walk over the stored basis was decoded, not two
        assert tracer.counters["accessor.tile_reads"] == j * tiles
        basis.bill_dot(j)
        assert (log.dot_calls, log.dot_vectors) == (1, j)
        assert (log.tiles, log.values) == (2 * tiles, 2 * j * n)
        assert tracer.counters["basis.vector_reads"] == 2 * j
        assert tracer.counters["basis.fused.dot_calls"] == 1
        assert tracer.counters["accessor.tile_reads"] == j * tiles
        # nothing to bill at depth 0, as a dot over no rows bills nothing
        before = (log.dot_calls, log.tiles)
        bill_dot_fused(0, n, 64, tracer, log)
        assert (log.dot_calls, log.tiles) == before


class _Subclassed(Frsz2Accessor):
    """Not exactly a ``Frsz2Accessor``, so never read behind its back: a
    wrapped slot that bills its tiles like the format it wraps."""


class TestEverySourceKind:
    """The row-source protocol of :mod:`repro.fused.kernels`: whatever
    source a reader carries, each of the three walks leaves the same bytes
    and bills every accessor the tile reads of a ``read_tile`` loop."""

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
        for acc in billed:
            acc.traffic.reads = acc.traffic.bytes_read = 0
            for t0, t1 in tile_grid(self.n, self.tile):
                acc.read_tile(t0, t1)

        def run(reader):
            out_w = w.copy()
            if walk == "dot":
                out = dot_basis_fused(reader, out_w, self.tile)
            elif walk == "axpy":
                out = axpy_fused(reader, y, out_w, self.tile)
            else:
                out = axpy_dot_fused(reader, y, out_w, self.tile)
            return _bits(out), _bits(out_w)

        reference = TileReader(_NumpyRows(np.ascontiguousarray(decoded.T)),
                               self.j, self.n, "numpy")
        reader, accs = self._reader(kind, backend, vectors, decoded)
        assert run(reader) == run(reference)
        for acc, ref in zip(accs, billed):
            assert (acc.traffic.tile_reads, acc.traffic.bytes_read) == (
                ref.traffic.tile_reads, ref.traffic.bytes_read)


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
            with pytest.raises(ValueError, match="w must be"):
                axpy_dot_fused(reader, np.ones(self.j), bad_w, 32)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_read_only_w_is_an_error_before_it_is_written(self, backend):
        frozen = np.ones(self.n)
        frozen.flags.writeable = False
        for reader in self._readers(backend):
            for op in (axpy_fused, axpy_dot_fused):
                with pytest.raises(ValueError, match="writable|read-only"):
                    op(reader, np.ones(self.j), frozen, 32)
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
            with pytest.raises(ValueError, match="at least j=3"):
                axpy_dot_fused(reader, np.ones(2), w, 32)
            with pytest.raises(ValueError, match="y must be"):
                axpy_dot_fused(reader, np.ones(6)[::2], w, 32)
            with pytest.raises(ValueError, match="tile_elems"):
                axpy_dot_fused(reader, np.ones(3), w, 0)
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
        ``h`` / ``u`` / the work buffer themselves), the source's
        ``_walk`` checks ``j`` and ``n`` against the rows it really holds —
        both before any pointer reaches C."""
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
        # the sweep indexes y, w and u; its lanes and, for a compressed
        # source, its decoded pieces live in a buffer the source keeps
        axpy_dot_fused(cached, y, w, 32)
        axpy_dot_fused(streaming, y, w, 32)
        table = streaming.source.table
        assert table._work.size == self.j * (
            engine.fused_round + engine.threads * (8 + engine.fused_piece))
        for call in (
            lambda: axpy_dot_fused(cached, y[:2], w, 32),
            lambda: axpy_dot_fused(cached, y, w[:99], 32),
            lambda: axpy_dot_fused(cached, y, w, 0),
            lambda: axpy_dot_fused(cached, y, frozen, 32),
            lambda: axpy_dot_fused(depth(cached, self.j + 2), np.ones(5), w, 32),
            lambda: axpy_dot_fused(depth(streaming, self.j, 64), y, np.zeros(64), 32),
            lambda: axpy_dot_fused(depth(streaming, self.j + 1), np.ones(4), w, 32),
            lambda: table.fused_axpy_dot(0, self.n, 32, y, w, np.zeros(0)),
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
        np.testing.assert_array_equal(
            cached.dot_basis(j, w), streaming.dot_basis(j, w)
        )
        np.testing.assert_array_equal(
            cached.combine(j, y), streaming.combine(j, y)
        )
        wc, ws = w.copy(), w.copy()
        np.testing.assert_array_equal(
            cached.axpy(j, y, wc), streaming.axpy(j, y, ws)
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
    def _basis(mode, backend, n=300, storage="frsz2_32", factory=None):
        rng = np.random.default_rng(3)
        basis = KrylovBasis(n, 3, storage, basis_mode=mode, tile_elems=64,
                            backend=backend, storage_factory=factory)
        vectors = rng.standard_normal((n, 3))
        return basis, vectors, rng.standard_normal(n)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_payload_flip_between_calls_is_seen(self, backend):
        basis, vectors, w = self._basis("streaming", backend)
        for i in range(3):
            basis.write_vector(i, vectors[:, i])
        held = basis._reader(3)  # one table, alive across the flip
        before = basis.dot_basis(3, w)
        np.testing.assert_array_equal(dot_basis_fused(held, w, 64), before)
        basis.accessors[1].compressed.payload[70] ^= np.uint32(1 << 30)
        after = basis.dot_basis(3, w)
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
        assert basis.dot_basis(1, w)[0] != before[0]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "case", ["plain", "mixed", "unwritten", "wrapped", "float32"])
    def test_every_route_matches_cached_mode(self, backend, case):
        """plain: FRSZ2 rows decoded inside the one C call (jit) or one
        codec pass per tile (numpy); mixed formats, an unwritten slot, a
        fault-injecting wrapper and dense float32 storage: per-accessor
        ``read_tile`` into a scratch the same kernels reduce.  Every
        route, and a batch column of it, is the scalar oracle's bits."""
        from repro.robust import FaultInjector, FaultyAccessor

        def wrapping(fmt, n, count=iter(range(8))):
            acc = make_accessor(fmt, n, backend=backend)
            if next(count) % 4 == 1:  # slot 1 of each basis
                return FaultyAccessor(acc, FaultInjector(0.0, 0), "readout_nan")
            return acc

        results, readers = [], []
        y = np.array([0.5, -2.0, 0.25])
        for mode in BASIS_MODES:
            basis, vectors, w = self._basis(
                mode, backend,
                storage="float32" if case == "float32" else "frsz2_32",
                factory=wrapping if case == "wrapped" else None,
            )
            if case == "mixed":
                basis.set_storage("frsz2_16", slots=[1])
            for i in (0, 2) if case == "unwritten" else (0, 1, 2):
                basis.write_vector(i, vectors[:, i])
            if mode == "streaming":
                one_call = Frsz2Tiles.open(basis.accessors[:3]) is not None
                assert one_call == (case == "plain")
            results.append((
                basis.dot_basis(3, w), basis.combine(3, y),
                basis.axpy(3, y, w.copy()),
                [a.traffic.tile_reads for a in basis.accessors],
                [a.traffic.bytes_read for a in basis.accessors],
            ))
            readers.append(basis._reader(3))
            stored = [basis.accessors[i].read() for i in range(3)]
        cached, streaming = results
        for c, s in zip(cached[:3], streaming[:3]):
            np.testing.assert_array_equal(c, s)
        tiles = len(tile_grid(300, 64))
        if case != "wrapped":  # a wrapper without seek bills whole reads
            assert streaming[3] == [3 * tiles] * 3 + [0]
        if case == "plain":
            # 33 bits per value: 3 fused calls x 300 values, whole blocks
            assert streaming[4][0] == 3 * (10 * 132)
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
        bills Fig. 1's kernels — a dot and an axpy per Gram–Schmidt pass,
        unchanged since the per-vector gather loop — and not the sweep's
        speculative dot on the 2 of 119 steps that drop it; the accessor
        side counts what was really decoded: three walks over the stored
        basis per two-pass step where there were four."""
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
        assert result.stats.fused_tiles == 3325
        assert result.stats.reorthogonalizations == 117
        assert sum(acc.traffic.tile_reads for acc in made) == 58359
        assert sum(acc.traffic.bytes_read for acc in made) == 475409088
        assert sum(acc.traffic.reads for acc in made) == 0
        expected = {
            "accessor.tile_reads": 58359,
            "accessor.bytes_read": 475409088,
            "accessor.writes": 122,
            "accessor.bytes_written": 6956928,
            "basis.vector_reads": 11075,
            "basis.bytes_read": 631540800,
            "basis.fused.dot_calls": 236,
            "basis.fused.axpy_calls": 236,
            "basis.fused.combine_calls": 3,
            "basis.fused.tiles": 3325,
            "basis.fused.values": 153100800,
        }
        assert {k: tracer.counters[k] for k in expected} == expected


class TestArnoldiBitIdentity:
    """One CGS Arnoldi step produces identical Hessenberg entries."""

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
        assert rc.reorthogonalized == rs.reorthogonalized
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


class TestStreamingMemory:
    """The streaming mode's reason to exist: O(tile) float64, not O(n*m)."""

    def test_streaming_never_allocates_dense_basis(self):
        n, m = 4096, 40
        basis = KrylovBasis(n, m, "frsz2_32", basis_mode="streaming")
        assert basis._cache is None
        rng = np.random.default_rng(0)
        for i in range(m):
            basis.write_vector(i, rng.standard_normal(n))
        w = rng.standard_normal(n)
        basis.dot_basis(m, w)
        basis.axpy(m, rng.standard_normal(m), w)
        basis.axpy_dot(m, rng.standard_normal(m), w)
        dense_bytes = n * (m + 1) * 8
        assert basis.peak_float64_bytes > 0
        assert basis.peak_float64_bytes <= m * basis.tile_elems * 8
        assert basis.peak_float64_bytes < dense_bytes
        # scratch is (j, tile): growing n does not grow the working set
        assert basis.peak_float64_bytes == basis.fused_log.peak_scratch_bytes

    @requires_jit
    def test_sweep_reports_its_real_buffers(self):
        """The compiled sweep decodes every row piece once and keeps it:
        per thread of the pool ``j`` pieces and ``8 j`` lanes, and one
        round of ``j`` tile partials, whatever ``n`` is — in a work buffer
        the basis keeps, sized for all ``m + 1`` slots and counted in its
        peak whether or not a call has used all of it."""
        from repro.jit import load_engine

        engine = load_engine()
        m, per_row = 50, (engine.fused_round
                          + engine.threads * (engine.fused_piece + 8))
        used, peaks = [], []
        for n in (4096, 16384):
            basis = KrylovBasis(n, m, "frsz2_32", basis_mode="streaming",
                                backend="jit")
            rng = np.random.default_rng(0)
            for i in range(m):
                basis.write_vector(i, rng.standard_normal(n))
            w = rng.standard_normal(n)
            basis.axpy_dot(m, basis.dot_basis(m, w), w)
            basis.axpy(m, rng.standard_normal(m), w)
            used.append(basis.fused_log.peak_scratch_bytes)
            peaks.append(basis.peak_float64_bytes)
        assert used == [8 * m * per_row] * 2  # what the j = 50 call used
        # what the buffer holds: ~240 KB at two threads; the dot's slices
        # (one tile each) and its partials fit in it
        assert peaks == [8 * (m + 1) * per_row] * 2
        dot = engine.fused_round * (m + 1) + engine.threads * basis.tile_elems
        assert dot <= (m + 1) * per_row

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
            assert stats[mode].fused_dot_calls > 0
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
    """reset() clears the cache and the accessor payloads (satellite 2)."""

    @pytest.mark.parametrize("storage", STORAGES)
    @pytest.mark.parametrize("mode", BASIS_MODES)
    def test_no_stale_bits_after_reset(self, storage, mode):
        rng = np.random.default_rng(9)
        n = 200
        basis = KrylovBasis(n, 3, storage, basis_mode=mode)
        basis.write_vector(0, rng.standard_normal(n))
        basis.reset()
        with pytest.raises(IndexError):
            basis.vector(0)
        # the accessor payload itself is gone, not just fenced
        np.testing.assert_array_equal(
            basis.accessors[0].read(), np.zeros(n)
        )
        if mode == "cached":
            assert not basis._cache.any()

    def test_fused_log_counts_accumulate(self):
        rng = np.random.default_rng(1)
        basis = KrylovBasis(300, 4, "frsz2_16", basis_mode="streaming", tile_elems=64)
        for i in range(3):
            basis.write_vector(i, rng.standard_normal(300))
        log = basis.fused_log
        assert isinstance(log, FusedOpLog)
        basis.dot_basis(3, rng.standard_normal(300))
        assert log.dot_calls == 1 and log.dot_vectors == 3
        assert log.tiles == len(tile_grid(300, basis.tile_elems))
        assert log.values == 3 * 300
        basis.combine(3, rng.standard_normal(3))
        assert log.combine_calls == 1 and log.combine_vectors == 3


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
        """Every fused operation of ``basis`` at depth ``j`` against the
        same operation over a reader built now, as raw uint64."""
        y = np.linspace(-1.5, 2.0, j)

        def fresh():  # a reader that proves everything from scratch
            return basis._reader(j)

        pairs = [
            (basis.dot_basis(j, w), dot_basis_fused(fresh(), w, self.tile)),
            (basis.combine(j, y), combine_fused(fresh(), y, self.tile)),
            (basis.axpy(j, y, w.copy()), axpy_fused(fresh(), y, w.copy(), self.tile)),
        ]
        kept_w, fresh_w = w.copy(), w.copy()
        pairs += [
            (basis.axpy_dot(j, y, kept_w), axpy_dot_fused(fresh(), y, fresh_w, self.tile)),
            (kept_w, fresh_w),
        ]
        for got, want in pairs:
            assert _bits(got) == _bits(want)

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
        basis.set_storage("frsz2_16", slots=[1])
        basis.write_vector(1, vectors[:, 1])

    @staticmethod
    def _float32_slot(basis, vectors):
        basis.set_storage("float32", slots=[2])
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
        before = basis.dot_basis(4, w)
        kept = basis._kept.source
        self._bit_flip(basis, vectors)
        assert kept.covers(basis.accessors, 4)  # same containers, new bits
        after = basis.dot_basis(4, w)
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
                basis.axpy_dot(i + 1, basis.dot_basis(i + 1, w), w.copy())
            assert len(opened) == 1
        with pytest.raises(IndexError):
            basis.write_vector(self.m + 1, w)
        # the work buffer is kept too: one allocation, sized by m
        work = table._work
        basis.axpy_dot(3, np.ones(3), w.copy())
        assert table._work is work
        engine = table._engine
        assert work.size == (self.m + 1) * (
            engine.fused_round + engine.threads * (8 + table.piece))

    def test_numpy_codecs_keep_no_table(self):
        basis, vectors, w = self._basis("streaming", "numpy")
        assert basis._kept.source is None
        self._assert_fresh(basis, 4, w)
