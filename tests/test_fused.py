"""Fused compressed-basis kernels and the streaming basis mode.

The load-bearing property is the determinism contract of
:mod:`repro.fused`: the ``cached`` and ``streaming`` basis modes must be
*bit-identical* — same Hessenberg entries, same residual histories, same
solutions — because they run the same tile kernels over the same grid.
The satellite property is the memory claim: streaming never materializes
an ``(n, m)`` float64 basis.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accessor import make_accessor
from repro.accessor.frsz2_accessor import Frsz2Accessor, Frsz2Tiles
from repro.fused import (
    DEFAULT_TILE_ELEMS,
    CachedTileReader,
    FusedOpLog,
    StreamingTileReader,
    axpy_fused,
    combine_fused,
    dot_basis_fused,
    norm_fused,
    tile_grid,
)
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

    def test_norm_fused_matches_tile_accumulation(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(500)
        got = norm_fused(lambda t0, t1: x[t0:t1], 500, 64)
        ref = 0.0
        for t0, t1 in tile_grid(500, 64):
            ref += float(x[t0:t1] @ x[t0:t1])
        assert got == float(np.sqrt(ref))

    def test_zero_vectors_edge(self):
        cache = np.zeros((10, 1), order="F")
        reader = CachedTileReader(cache, 0)
        assert dot_basis_fused(reader, np.ones(10)).shape == (0,)
        np.testing.assert_array_equal(
            combine_fused(reader, np.zeros(0)), np.zeros(10)
        )


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
            assert cached.norm_vector(i) == streaming.norm_vector(i)
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
        reader.load(0, 64, out)
        for row, acc in enumerate(accs):
            np.testing.assert_array_equal(out[row], acc.read()[:64])


class TestStreamingReaderSemantics:
    """What a :class:`StreamingTileReader` promises with a pointer table
    in play: it decodes what is stored *now*, it never outlives the
    arrays it points into, every ineligible basis takes the per-accessor
    route with the same bits, and the traffic bill does not change."""

    @staticmethod
    def _basis(mode, backend, n=300):
        rng = np.random.default_rng(3)
        basis = KrylovBasis(n, 3, "frsz2_32", basis_mode=mode,
                            tile_elems=64, backend=backend)
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
        held.load(64, 128, scratch)
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
    @pytest.mark.parametrize("case", ["plain", "mixed", "unwritten"])
    def test_every_route_matches_cached_mode(self, backend, case):
        """plain: the one-call tile source; mixed formats and an
        unwritten slot: per-accessor ``read_tile``."""
        results = []
        for mode in BASIS_MODES:
            basis, vectors, w = self._basis(mode, backend)
            if case == "mixed":
                basis.set_storage("frsz2_16", slots=[1])
            for i in (0, 2) if case == "unwritten" else (0, 1, 2):
                basis.write_vector(i, vectors[:, i])
            if mode == "streaming":
                one_call = Frsz2Tiles.open(basis.accessors[:3]) is not None
                assert one_call == (case == "plain")
            y = np.array([0.5, -2.0, 0.25])
            results.append((
                basis.dot_basis(3, w), basis.combine(3, y),
                basis.axpy(3, y, w.copy()),
                [a.traffic.tile_reads for a in basis.accessors],
                [a.traffic.bytes_read for a in basis.accessors],
            ))
        cached, streaming = results
        for c, s in zip(cached[:3], streaming[:3]):
            np.testing.assert_array_equal(c, s)
        tiles = len(tile_grid(300, 64))
        assert streaming[3] == [3 * tiles] * 3 + [0]
        if case == "plain":
            # 33 bits per value: 3 fused calls x 300 values, whole blocks
            assert streaming[4][0] == 3 * (10 * 132)

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
        StreamingTileReader(accs, 2).load(0, 64, out)
        np.testing.assert_array_equal(out[0], accs[0].read()[:64])
        np.testing.assert_array_equal(out[1], 2.0 * accs[0].codec.decompress(
            accs[1].compressed)[:64])

    @requires_jit
    def test_traffic_and_counters_of_one_streaming_solve(self):
        """The ``stream_lowmem`` benchmark system (atmosmodd 24^3,
        frsz2_32, m=50): the bill of one solve, unchanged since the
        per-vector gather loop it replaced."""
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
        assert sum(acc.traffic.tile_reads for acc in made) == 77525
        assert sum(acc.traffic.bytes_read for acc in made) == 631540800
        assert sum(acc.traffic.reads for acc in made) == 0
        expected = {
            "accessor.tile_reads": 77525,
            "accessor.bytes_read": 631540800,
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

    def test_mgs_modes_identical(self):
        p = make_problem("lung2", "smoke")
        res = [
            CbGmres(
                p.a, "frsz2_32", m=20, max_iter=300,
                orthogonalization="mgs", basis_mode=mode,
            ).solve(p.b, p.target_rrn)
            for mode in BASIS_MODES
        ]
        np.testing.assert_array_equal(res[0].x, res[1].x)
        assert res[0].iterations == res[1].iterations


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
        dense_bytes = n * (m + 1) * 8
        assert basis.peak_float64_bytes > 0
        assert basis.peak_float64_bytes <= m * basis.tile_elems * 8
        assert basis.peak_float64_bytes < dense_bytes
        # scratch is (j, tile): growing n does not grow the working set
        assert basis.peak_float64_bytes == basis.fused_log.peak_scratch_bytes

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
