"""Tests for the multi-format SpMV engine (ELL, SELL-C-σ, autotuner).

The contract under test: every format is a lossless re-layout of the
same CSR matrix, and — because the padded kernels accumulate each row's
entries in CSR order — their matvec results are *bit-identical* to the
CSR kernel, which is what lets ``--spmv-format auto`` change runtime
without changing a single solver iterate.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import spmv_kernel_cost, spmv_roofline
from repro.observe import Tracer
from repro.solvers import CbGmres, make_problem
from repro.sparse import (
    CSRMatrix,
    DEFAULT_SLICE_SIZE,
    ELLMatrix,
    SELLMatrix,
    SPMV_FORMATS,
    SpmvEngine,
    build_matrix,
    choose_format,
    row_stats,
    suite_names,
)
from repro.sparse.sell import sell_padded_entries


def random_csr(m, n, seed=0, max_row=9, empty_every=0, long_rows=()):
    """Duplicate-free random pattern with optional empty/ultra-long rows."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(m):
        k = int(rng.integers(0, min(max_row, n) + 1))
        if i in long_rows:
            k = n
        if empty_every and i % empty_every == 0:
            k = 0
        rows.append(np.sort(rng.choice(n, size=k, replace=False)))
    indptr = np.zeros(m + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([len(r) for r in rows])
    nnz = int(indptr[-1])
    indices = (
        np.concatenate([r for r in rows if len(r)])
        if nnz
        else np.empty(0, dtype=np.int64)
    )
    data = rng.standard_normal(nnz)
    return CSRMatrix((m, n), indptr, indices, data)


EDGE_CASES = [
    pytest.param(dict(m=50, n=40, seed=1, empty_every=7), id="empty-rows"),
    pytest.param(dict(m=70, n=50, seed=2, long_rows=(3, 44)), id="ultra-long-rows"),
    pytest.param(dict(m=97, n=83, seed=3), id="random"),
    pytest.param(dict(m=33, n=33, seed=4, max_row=1), id="near-diagonal"),
    pytest.param(dict(m=5, n=64, seed=5), id="fewer-rows-than-slice"),
    pytest.param(dict(m=64, n=64, seed=6, empty_every=1), id="all-empty"),
]


def _formats_of(a):
    return {
        "csr": SpmvEngine(a, "csr"),
        "ell": SpmvEngine(a, "ell"),
        "sell": SpmvEngine(a, "sell"),
        "sell-unsorted": SpmvEngine(a, "sell", sigma=1),
        "auto": SpmvEngine(a, "auto"),
    }


class TestKernelEquivalence:
    @pytest.mark.parametrize("kw", EDGE_CASES)
    def test_matvec_bit_identical_to_csr(self, kw):
        a = random_csr(**kw)
        rng = np.random.default_rng(99)
        x = rng.standard_normal(a.shape[1])
        y0 = a.matvec(x)
        for name, op in _formats_of(a).items():
            y = op.matvec(x)
            assert np.array_equal(y, y0), name

    @pytest.mark.parametrize("kw", EDGE_CASES)
    def test_matvec_out_buffer_bit_identical(self, kw):
        a = random_csr(**kw)
        x = np.random.default_rng(7).standard_normal(a.shape[1])
        y0 = a.matvec(x)
        for name, op in _formats_of(a).items():
            buf = np.full(a.shape[0], np.nan)
            y = op.matvec(x, out=buf)
            assert y is buf, name
            assert np.array_equal(buf, y0), name

    @pytest.mark.parametrize("kw", EDGE_CASES)
    def test_slotwise_kernel_bit_identical(self, kw, monkeypatch):
        # the large-matrix slot-wise ELL strategy must match the fused
        # reduce strategy bit-for-bit; force it on at every size
        import repro.sparse.ell as ell_mod

        monkeypatch.setattr(ell_mod, "_SLOTWISE_MIN_ROWS", 1)
        a = random_csr(**kw)
        x = np.random.default_rng(13).standard_normal(a.shape[1])
        y0 = a.matvec(x)
        ell = SpmvEngine(a, "ell")
        assert np.array_equal(ell.matvec(x), y0)
        buf = np.full(a.shape[0], np.nan)
        assert np.array_equal(ell.matvec(x, out=buf), y0)

    def test_every_suite_matrix_bit_identical(self):
        for name in suite_names():
            a = build_matrix(name, "smoke")
            x = np.random.default_rng(5).standard_normal(a.shape[1])
            y0 = a.matvec(x)
            for fmt in ("ell", "sell", "auto"):
                y = SpmvEngine(a, fmt).matvec(x)
                assert np.array_equal(y, y0), (name, fmt)

    def test_nonfinite_inputs_are_never_silently_lost(self):
        # the bit-identity contract holds for finite x (the only inputs
        # the solver produces); for non-finite x the padded formats must
        # at minimum flag every row the CSR kernel flags — a padded lane
        # computing 0*inf = NaN may *add* poisoned rows, never hide one
        a = random_csr(m=40, n=40, seed=8, empty_every=5)
        x = np.random.default_rng(3).standard_normal(40)
        x[7] = np.nan
        x[21] = np.inf
        bad0 = ~np.isfinite(a.matvec(x))
        assert bad0.any()
        for name, op in _formats_of(a).items():
            bad = ~np.isfinite(op.matvec(x))
            assert np.all(bad[bad0]), name


class TestRoundTrip:
    @pytest.mark.parametrize("kw", EDGE_CASES)
    def test_exact_csr_round_trip(self, kw):
        a = random_csr(**kw)
        for conv in (
            ELLMatrix.from_csr(a),
            SELLMatrix.from_csr(a),
            SELLMatrix.from_csr(a, slice_size=8, sigma=16),
            SELLMatrix.from_csr(a, sigma=1),
        ):
            b = conv.to_csr()
            assert b.shape == a.shape
            assert np.array_equal(b.indptr, a.indptr)
            assert np.array_equal(b.indices, a.indices)
            assert np.array_equal(b.data, a.data)

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(1, 80),
        n=st.integers(1, 60),
        seed=st.integers(0, 2**31),
        slice_size=st.integers(1, 48),
        sigma=st.integers(0, 96),
    )
    def test_round_trip_property(self, m, n, seed, slice_size, sigma):
        a = random_csr(m, n, seed=seed, max_row=min(n, 7), empty_every=11)
        for conv in (
            ELLMatrix.from_csr(a),
            SELLMatrix.from_csr(a, slice_size=slice_size, sigma=sigma),
        ):
            b = conv.to_csr()
            assert np.array_equal(b.indptr, a.indptr)
            assert np.array_equal(b.indices, a.indices)
            assert np.array_equal(b.data, a.data)

    def test_sell_permutation_is_consistent(self):
        a = random_csr(m=90, n=70, seed=13, long_rows=(60,))
        s = SELLMatrix.from_csr(a)
        assert np.array_equal(s.inv_perm[s.perm], np.arange(90))
        # sigma<=1 keeps the natural order
        assert not SELLMatrix.from_csr(a, sigma=1).permuted


class TestAutotuner:
    def test_choice_is_deterministic(self):
        for name in ("atmosmodd", "cfd2", "PR02R"):
            a = build_matrix(name, "smoke")
            picks = {choose_format(a) for _ in range(3)}
            assert len(picks) == 1
            # rebuilt matrix -> same structure -> same pick
            assert choose_format(build_matrix(name, "smoke")) in picks

    def test_stencils_pick_ell(self):
        # banded/stencil suite matrices have near-uniform rows
        assert choose_format(build_matrix("atmosmodd", "smoke")) == "ell"
        assert choose_format(build_matrix("lung2", "smoke")) == "ell"

    def test_long_tail_rows_pick_csr(self):
        a = random_csr(m=128, n=128, seed=17, max_row=2, long_rows=(5,))
        s = row_stats(a)
        assert s.ell_padding > 10
        assert choose_format(a) == "csr"

    def test_small_or_empty_matrices_pick_csr(self):
        assert choose_format(random_csr(m=8, n=8, seed=1)) == "csr"
        empty = random_csr(m=64, n=64, seed=1, empty_every=1)
        assert empty.nnz == 0
        assert choose_format(empty) == "csr"

    def test_row_stats_fields(self):
        a = random_csr(m=64, n=64, seed=19, empty_every=9)
        s = row_stats(a)
        assert s.rows == 64 and s.cols == 64
        assert s.nnz == a.nnz
        assert s.min_len == 0 and s.empty_rows >= 7
        assert s.ell_padding == pytest.approx(64 * s.max_len / s.nnz)
        lengths = np.diff(a.indptr)
        assert s.sell_padding == pytest.approx(
            sell_padded_entries(lengths) / s.nnz
        )

    def test_engine_validates_inputs(self):
        a = random_csr(m=40, n=40, seed=2)
        with pytest.raises(ValueError):
            SpmvEngine(a, "blocked")
        with pytest.raises(TypeError):
            SpmvEngine(ELLMatrix.from_csr(a))
        assert "auto" in SPMV_FORMATS and "sell" in SPMV_FORMATS


class TestSolverIntegration:
    def test_auto_solve_identical_to_csr(self):
        p = make_problem("atmosmodd", "smoke")
        base = CbGmres(p.a, "frsz2_32", m=30, max_iter=400).solve(
            p.b, p.target_rrn
        )
        for fmt in ("auto", "ell", "sell"):
            res = CbGmres(
                p.a, "frsz2_32", m=30, max_iter=400, spmv_format=fmt
            ).solve(p.b, p.target_rrn)
            assert res.iterations == base.iterations
            assert res.final_rrn == base.final_rrn
            assert np.array_equal(
                res.x.view(np.uint64), base.x.view(np.uint64)
            )

    def test_stats_record_resolved_format_and_padding(self):
        p = make_problem("atmosmodd", "smoke")
        res = CbGmres(
            p.a, "float64", m=30, max_iter=400, spmv_format="auto"
        ).solve(p.b, p.target_rrn)
        assert res.stats.spmv_format == "ell"
        assert res.stats.spmv_padded_entries >= p.a.nnz
        base = CbGmres(p.a, "float64", m=30, max_iter=400).solve(
            p.b, p.target_rrn
        )
        assert base.stats.spmv_format == "csr"
        assert base.stats.spmv_padded_entries == p.a.nnz

    def test_csr_format_keeps_the_plain_matrix(self):
        # the csr layout is the matrix itself: nothing is converted
        p = make_problem("lung2", "smoke")
        solver = CbGmres(p.a, "float64", spmv_format="csr")
        assert isinstance(solver.a, SpmvEngine) and solver.a.layout is p.a

    def test_engine_requires_csr_matrix(self):
        p = make_problem("lung2", "smoke")
        with pytest.raises(ValueError, match="CSRMatrix"):
            CbGmres(
                ELLMatrix.from_csr(p.a), "float64", spmv_format="auto"
            )


class TestAccounting:
    def test_counters_charge_padding(self):
        # the engine's counters are the one traffic model, padding included
        a = build_matrix("atmosmodd", "smoke")
        x = np.zeros(a.shape[1])
        for fmt in ("csr", "ell", "sell"):
            engine = SpmvEngine(a, fmt)
            engine.tracer = t = Tracer()
            engine.matvec(x)
            engine.matvec(x)
            cost = spmv_kernel_cost(
                a.shape[0], a.nnz, fmt, engine.padded_entries, DEFAULT_SLICE_SIZE)
            assert t.counters == {
                "spmv.calls": 2,
                "spmv.flops": 2 * cost.fp64_flops,
                "spmv.bytes": 2 * cost.bytes_moved,
                "spmv.padded_entries": 2 * engine.padded_entries,
                f"spmv.format.{fmt}": 2,
            }, fmt
            assert t.counters["spmv.flops"] == 4 * engine.padded_entries >= 4 * a.nnz
            assert [rec.name for rec in t.spans] == [f"{fmt}.matvec"] * 2

    def test_untraced_until_a_caller_sets_the_tracer(self):
        # a solver's tracer never reaches the operator on its own
        p = make_problem("lung2", "smoke")
        engine = SpmvEngine(p.a, "auto")
        assert engine.resolved_format == "ell"
        t = Tracer()
        res = CbGmres(engine, "float64", m=30, tracer=t).solve(p.b, p.target_rrn)
        assert not any(k.startswith("spmv.") for k in t.counters)
        assert "ell.matvec" not in t.by_name()
        engine.tracer = t2 = Tracer()
        CbGmres(engine, "float64", m=30, tracer=t2).solve(p.b, p.target_rrn)
        assert t2.counters["spmv.calls"] == res.stats.spmv_calls
        assert t2.by_name()["ell.matvec"].count == res.stats.spmv_calls

    def test_spmv_kernel_cost_orders_formats_by_padding(self):
        # same matrix: the padded formats charge >= the CSR traffic
        n, nnz = 1000, 7000
        csr = spmv_kernel_cost(n, nnz, "csr")
        ell = spmv_kernel_cost(n, nnz, "ell", padded_entries=9000)
        assert ell.bytes_moved > csr.bytes_moved - (n + 1) * 4
        assert ell.fp64_flops == 2 * 9000
        with pytest.raises(KeyError):
            spmv_kernel_cost(n, nnz, "blocked")

    def test_spmv_roofline_matches_engine_padding(self):
        a = build_matrix("cfd2", "smoke")
        points = spmv_roofline(a)
        assert set(points) == {"csr", "ell", "sell", "auto"}
        assert points["csr"].padding_ratio == 1.0
        eng = SpmvEngine(a, "ell")
        assert points["ell"].padded_entries == eng.padded_entries
        assert points["auto"] == points[choose_format(a)]
        for p in points.values():
            assert p.seconds > 0 and p.bytes_moved > 0

    def test_default_slice_size_is_warp_sized(self):
        assert DEFAULT_SLICE_SIZE == 32


class TestNonFiniteWarnings:
    """Satellite: padded-lane 0*inf products must not leak warnings.

    The ELL/SELL kernels gather with ``mode="clip"`` and multiply the
    padding slots by 0.0; a non-finite x therefore evaluates ``0 * inf``
    inside the kernel.  The NaN result is the intended propagation
    semantics — but before the ``errstate`` scoping it also emitted a
    ``RuntimeWarning: invalid value encountered in multiply``, turning
    every poisoned solve (e.g. under fault injection) into warning spam.
    """

    def _nonfinite_x(self, n):
        x = np.random.default_rng(3).standard_normal(n)
        x[n // 3] = np.nan
        x[(2 * n) // 3] = np.inf
        return x

    def test_matvec_emits_no_warnings(self):
        a = random_csr(m=48, n=48, seed=8, empty_every=5)
        x = self._nonfinite_x(48)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name, op in _formats_of(a).items():
                y = op.matvec(x)
                assert not np.all(np.isfinite(y)), name

    def test_slotwise_matvec_emits_no_warnings(self, monkeypatch):
        import repro.sparse.ell as ell_mod

        monkeypatch.setattr(ell_mod, "_SLOTWISE_MIN_ROWS", 1)
        a = random_csr(m=48, n=48, seed=8, empty_every=5)
        x = self._nonfinite_x(48)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SpmvEngine(a, "ell").matvec(x)

    def test_matmat_emits_no_warnings(self):
        a = random_csr(m=48, n=48, seed=8, empty_every=5)
        X = np.asfortranarray(
            np.stack([self._nonfinite_x(48)] * 3, axis=1)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for op in _formats_of(a).values():
                op.matmat(X)


class TestMatmat:
    """Multi-vector SpMV: per-column bit-identity with matvec."""

    @pytest.mark.parametrize("kw", EDGE_CASES)
    def test_bit_identical_per_column(self, kw):
        a = random_csr(**kw)
        rng = np.random.default_rng(42)
        X = np.asfortranarray(rng.standard_normal((a.shape[1], 5)))
        expected = np.stack([a.matvec(X[:, c]) for c in range(5)], axis=1)
        for name, op in _formats_of(a).items():
            Y = op.matmat(X)
            assert np.array_equal(Y, expected), name
            assert np.array_equal(op @ X, expected), name

    def test_c_order_input_matches(self):
        # callers may pass a C-ordered block; the contiguous-copy
        # staging must not change the bits
        a = random_csr(m=60, n=50, seed=9)
        rng = np.random.default_rng(5)
        Xc = np.ascontiguousarray(rng.standard_normal((50, 4)))
        Xf = np.asfortranarray(Xc)
        for op in _formats_of(a).values():
            assert np.array_equal(op.matmat(Xc), op.matmat(Xf))

    def test_out_buffer(self):
        a = random_csr(m=40, n=40, seed=4)
        X = np.asfortranarray(
            np.random.default_rng(2).standard_normal((40, 3))
        )
        for op in _formats_of(a).values():
            expected = op.matmat(X)
            buf = np.full((40, 3), np.nan, order="F")
            got = op.matmat(X, out=buf)
            assert got is buf
            assert np.array_equal(buf, expected)
            # each column of out is a matvec out: C order is refused
            with pytest.raises(ValueError, match="out"):
                op.matmat(X, out=np.empty((40, 3)))

    def test_shape_validation(self):
        a = SpmvEngine(random_csr(m=40, n=40, seed=4), "csr")
        with pytest.raises(ValueError):
            a.matmat(np.zeros((39, 3)))
        with pytest.raises(ValueError):
            a.matmat(np.zeros((40, 3)), out=np.zeros((40, 2)))

    def test_bills_one_spmv_per_column(self):
        a = random_csr(m=40, n=40, seed=4)
        X = np.zeros((40, 6), order="F")
        for op in _formats_of(a).values():
            op.tracer = t = Tracer()
            op.matmat(X)
            assert t.counters["spmv.calls"] == 6
