"""Tests for the preconditioners (the M^-1 of the paper's Fig. 1)."""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accessor import Float64Accessor, Frsz2Accessor, make_accessor
from repro.jit import dispatch
from repro.observe import Tracer
from repro.solvers import (
    PREC_STORAGES,
    PRECONDITIONERS,
    BlockJacobiPreconditioner,
    CbGmres,
    IdentityPreconditioner,
    ILU0Preconditioner,
    JacobiPreconditioner,
    PreconditionerError,
    ZeroPivotError,
    make_preconditioner,
    make_problem,
)
from repro.solvers.preconditioner import _stored_values
from repro.sparse import COOMatrix, CSRMatrix, generators

from .backends import BACKENDS, requires_jit


def spd_system(n=40, seed=0):
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((n, n)) * 0.1
    dense = dense @ dense.T + np.diag(1.0 + rng.random(n) * 5)
    rows, cols = np.nonzero(dense)
    a = COOMatrix((n, n), rows, cols, dense[rows, cols]).to_csr()
    x = rng.standard_normal(n)
    return a, a.matvec(x), x


class TestIdentity:
    def test_apply_is_noop(self):
        p = IdentityPreconditioner()
        v = np.linspace(0, 1, 10)
        assert np.array_equal(p.apply(v), v)

    def test_is_identity_flag(self):
        assert IdentityPreconditioner().is_identity
        a, _, _ = spd_system()
        assert not JacobiPreconditioner(a).is_identity


class TestJacobi:
    def test_apply_divides_by_diagonal(self):
        a, _, _ = spd_system(seed=1)
        p = JacobiPreconditioner(a)
        v = np.ones(a.n)
        assert np.allclose(p.apply(v), 1.0 / a.diagonal())

    def test_zero_diagonal_falls_back_to_identity_row(self):
        a = COOMatrix((2, 2), [0, 0, 1], [0, 1, 0], [2.0, 1.0, 3.0]).to_csr()
        p = JacobiPreconditioner(a)
        out = p.apply(np.array([4.0, 5.0]))
        assert out[0] == 2.0  # divided by 2
        assert out[1] == 5.0  # diagonal zero -> untouched

    def test_nonsquare_rejected(self):
        a = COOMatrix((2, 3), [0], [0], [1.0]).to_csr()
        with pytest.raises(ValueError):
            JacobiPreconditioner(a)


class TestBlockJacobi:
    def test_exact_inverse_for_block_diagonal_matrix(self):
        # a truly block-diagonal matrix: M^-1 A = I, GMRES in 1 iteration
        rng = np.random.default_rng(2)
        blocks = [rng.standard_normal((4, 4)) + 4 * np.eye(4) for _ in range(5)]
        rows, cols, data = [], [], []
        for b, blk in enumerate(blocks):
            r, c = np.meshgrid(range(4), range(4), indexing="ij")
            rows.append((r + 4 * b).ravel())
            cols.append((c + 4 * b).ravel())
            data.append(blk.ravel())
        a = COOMatrix(
            (20, 20), np.concatenate(rows), np.concatenate(cols), np.concatenate(data)
        ).to_csr()
        p = BlockJacobiPreconditioner(a, block_size=4)
        x_true = rng.standard_normal(20)
        b_vec = a.matvec(x_true)
        res = CbGmres(a, preconditioner=p).solve(b_vec, 1e-12)
        assert res.converged
        assert res.iterations <= 2

    def test_apply_matches_dense_inverse(self):
        a, _, _ = spd_system(n=12, seed=3)
        p = BlockJacobiPreconditioner(a, block_size=6)
        dense = a.to_dense()
        m = np.zeros_like(dense)
        m[:6, :6] = np.linalg.inv(dense[:6, :6])
        m[6:, 6:] = np.linalg.inv(dense[6:, 6:])
        v = np.random.default_rng(4).standard_normal(12)
        assert np.allclose(p.apply(v), m @ v)

    def test_partial_last_block(self):
        a, b, _ = spd_system(n=10, seed=5)
        p = BlockJacobiPreconditioner(a, block_size=4)  # blocks 4,4,2
        assert p.apply(b).shape == (10,)

    def test_reduced_precision_storage(self):
        a, _, _ = spd_system(n=16, seed=6)
        p64 = BlockJacobiPreconditioner(a, 4, np.float64)
        p32 = BlockJacobiPreconditioner(a, 4, np.float32)
        p16 = BlockJacobiPreconditioner(a, 4, np.float16)
        assert p32.stored_nbytes == p64.stored_nbytes // 2
        assert p16.stored_nbytes == p64.stored_nbytes // 4
        v = np.random.default_rng(7).standard_normal(16)
        # reduced precision perturbs but approximates the float64 apply
        assert np.allclose(p32.apply(v), p64.apply(v), rtol=1e-5)
        assert np.allclose(p16.apply(v), p64.apply(v), rtol=2e-2)
        assert not np.array_equal(p32.apply(v), p64.apply(v))

    def test_invalid_dtype_rejected(self):
        a, _, _ = spd_system(n=8, seed=8)
        with pytest.raises(ValueError):
            BlockJacobiPreconditioner(a, 4, np.int32)

    def test_invalid_block_size(self):
        a, _, _ = spd_system(n=8, seed=9)
        with pytest.raises(ValueError):
            BlockJacobiPreconditioner(a, 0)

    def test_singular_block_falls_back(self):
        a = COOMatrix((4, 4), [0, 1, 2, 3], [1, 0, 2, 3], [1.0, 1.0, 1.0, 1.0]).to_csr()
        # block [2x2] of rows 0-1 has zero diagonal but is invertible;
        # make a genuinely singular block instead
        a2 = COOMatrix((4, 4), [2, 3], [2, 3], [1.0, 1.0]).to_csr()
        p = BlockJacobiPreconditioner(a2, block_size=2)
        out = p.apply(np.ones(4))
        assert np.all(np.isfinite(out))

    def test_wrong_vector_shape(self):
        a, _, _ = spd_system(n=8, seed=10)
        p = BlockJacobiPreconditioner(a, 4)
        with pytest.raises(ValueError):
            p.apply(np.ones(9))


def tridiag(n=30, lo=-1.0, di=4.0, hi=-2.0):
    """Tridiagonal test matrix; its ILU(0) is the *exact* LU (no fill)."""
    rows = np.concatenate([np.arange(n), np.arange(1, n), np.arange(n - 1)])
    cols = np.concatenate([np.arange(n), np.arange(n - 1), np.arange(1, n)])
    data = np.concatenate([np.full(n, di), np.full(n - 1, lo), np.full(n - 1, hi)])
    return COOMatrix((n, n), rows, cols, data).to_csr()


class TestIlu0:
    def test_exact_for_fill_free_pattern(self):
        # tridiagonal: ILU(0) == full LU, so M^-1 A v == v to rounding
        a = tridiag(25)
        p = ILU0Preconditioner(a)
        rng = np.random.default_rng(12)
        v = rng.standard_normal(25)
        recovered = p.apply(a.matvec(v))
        assert np.allclose(recovered, v, rtol=1e-12)

    def test_gmres_converges_in_one_restart_on_fill_free_matrix(self):
        a = tridiag(64)
        rng = np.random.default_rng(13)
        x_true = rng.standard_normal(64)
        res = CbGmres(a, preconditioner=ILU0Preconditioner(a)).solve(
            a.matvec(x_true), 1e-12
        )
        assert res.converged
        assert res.iterations <= 3
        assert np.linalg.norm(res.x - x_true) / np.linalg.norm(x_true) < 1e-9

    def test_factors_match_dense_ilu_on_spd(self):
        a, _, _ = spd_system(n=14, seed=14)
        p = ILU0Preconditioner(a)
        # the (dense) pattern here is full, so ILU(0) is plain LU
        dense = a.to_dense()
        v = np.random.default_rng(15).standard_normal(14)
        assert np.allclose(p.apply(v), np.linalg.solve(dense, v), rtol=1e-9)

    def test_zero_pivot_raises_named_row(self):
        # row 1 has no diagonal entry -> structural zero pivot
        a = COOMatrix((3, 3), [0, 1, 2], [0, 0, 2], [1.0, 1.0, 1.0]).to_csr()
        with pytest.raises(ZeroPivotError) as err:
            ILU0Preconditioner(a)
        assert err.value.row == 1
        assert isinstance(err.value, PreconditionerError)
        assert isinstance(err.value, ValueError)

    def test_exact_zero_pivot_raises(self):
        a = COOMatrix(
            (2, 2), [0, 0, 1, 1], [0, 1, 0, 1], [1.0, 1.0, 1.0, 1.0]
        ).to_csr()
        # elimination: u_11 = 1 - 1*1 = 0
        with pytest.raises(ZeroPivotError) as err:
            ILU0Preconditioner(a)
        assert err.value.row == 1
        assert str(err.value) == "ILU(0) zero pivot at row 1"

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pivot_the_storage_rounds_to_zero_raises(self, backend):
        # pivots 1e6 times smaller than their FRSZ2 block's largest value
        # are below frsz2_16's 15 significand bits: stored as zero.  The
        # sweeps would divide by them; set-up names the first instead.
        a = make_problem("aniso_jump", "smoke").a
        with pytest.raises(ZeroPivotError) as err:
            ILU0Preconditioner(a, storage="frsz2_16", backend=backend)
        assert err.value.row == 384
        assert "after rounding to frsz2_16 storage" in str(err.value)
        # the same factors are fine on the rungs that keep the pivots
        for storage in ("float64", "frsz2_32"):
            ILU0Preconditioner(a, storage=storage, backend=backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("storage", ["float64", "frsz2_32"])
    @pytest.mark.parametrize("poison", [np.nan, np.inf])
    def test_non_finite_factor_raises_named_row(self, backend, storage, poison):
        a = tridiag(12)
        data = a.data.copy()
        data[a.indptr[7]] = poison  # row 7's first entry: its multiplier
        bad = CSRMatrix(a.shape, a.indptr, a.indices, data)
        with pytest.raises(PreconditionerError, match="not finite at row 7"):
            ILU0Preconditioner(bad, storage=storage, backend=backend)

    def test_storage_ladder_byte_ratios(self):
        a, _, _ = spd_system(n=32, seed=16)
        sizes = {
            s: ILU0Preconditioner(a, storage=s).stored_nbytes
            for s in ("float64", "float32", "frsz2_32", "frsz2_16")
        }
        assert sizes["float32"] == sizes["float64"] // 2
        assert sizes["frsz2_32"] < sizes["float64"]
        assert sizes["frsz2_16"] < sizes["frsz2_32"]
        info = ILU0Preconditioner(a, storage="frsz2_16").cost_info()
        assert info["float64_bytes"] == sizes["float64"]
        assert info["stored_bytes"] == sizes["frsz2_16"]

    def test_compressed_factors_still_precondition(self):
        a = tridiag(48)
        rng = np.random.default_rng(17)
        b = a.matvec(rng.standard_normal(48))
        for storage in ("frsz2_32", "frsz2_16"):
            res = CbGmres(
                a, preconditioner=ILU0Preconditioner(a, storage=storage)
            ).solve(b, 1e-10)
            assert res.converged

    def test_nonsquare_rejected(self):
        a = COOMatrix((2, 3), [0, 1], [0, 1], [1.0, 1.0]).to_csr()
        with pytest.raises(ValueError):
            ILU0Preconditioner(a)

    def test_unknown_storage_rejected(self):
        a = tridiag(4)
        with pytest.raises(PreconditionerError):
            ILU0Preconditioner(a, storage="int8")


class TestMakePreconditioner:
    def test_choices_cover_cli_names(self):
        assert PRECONDITIONERS == ("none", "jacobi", "block_jacobi", "ilu0")
        assert PREC_STORAGES == ("float64", "float32", "frsz2_32", "frsz2_16")

    def test_builds_each_kind(self):
        a, _, _ = spd_system(n=16, seed=18)
        assert make_preconditioner("none", a).is_identity
        assert isinstance(make_preconditioner("jacobi", a), JacobiPreconditioner)
        assert isinstance(
            make_preconditioner("block_jacobi", a, storage="frsz2_16"),
            BlockJacobiPreconditioner,
        )
        assert isinstance(
            make_preconditioner("ilu0", a, storage="frsz2_32"), ILU0Preconditioner
        )

    def test_unknown_name_and_storage_rejected(self):
        a, _, _ = spd_system(n=8, seed=19)
        with pytest.raises(PreconditionerError):
            make_preconditioner("amg", a)
        with pytest.raises(PreconditionerError):
            make_preconditioner("ilu0", a, storage="float128")

    def test_tracer_counts_applies_and_bytes(self):
        a, _, _ = spd_system(n=16, seed=20)
        tracer = Tracer()
        p = make_preconditioner("ilu0", a, tracer=tracer)
        v = np.ones(16)
        p.apply(v)
        p.apply(v)
        assert tracer.counters["prec.applies"] == 2
        assert tracer.counters["prec.apply.bytes"] == 2 * (p.stored_nbytes + 16 * 16)
        assert tracer.total_seconds("prec.setup") > 0.0
        assert tracer.total_seconds("prec.apply") > 0.0

    def test_attach_tracer_does_not_clobber_constructor_tracer(self):
        a, _, _ = spd_system(n=8, seed=21)
        mine = Tracer()
        p = make_preconditioner("jacobi", a, tracer=mine)
        p.attach_tracer(Tracer())
        p.apply(np.ones(8))
        assert mine.counters["prec.applies"] == 1


class TestFrsz2BlockJacobiDefaultGrid:
    def test_frsz2_16_block_jacobi_converges_on_default_lung2(self):
        """The headline compressed-preconditioner claim: 16-bit FRSZ2
        block factors keep convergence on the default-scale grid."""
        p = make_problem("lung2", "default")
        prec = BlockJacobiPreconditioner(p.a, block_size=8, storage="frsz2_16")
        res = CbGmres(p.a, "frsz2_32", preconditioner=prec).solve(
            p.b, p.target_rrn
        )
        assert res.converged
        assert prec.stored_nbytes < prec.float64_nbytes / 3


class TestBlockSizeFuzz:
    @settings(max_examples=25, deadline=None)
    @given(
        block_size=st.integers(min_value=1, max_value=23),
        n=st.integers(min_value=3, max_value=40),
        storage=st.sampled_from(PREC_STORAGES),
    )
    def test_block_jacobi_any_block_size_is_finite_and_close(
        self, block_size, n, storage
    ):
        a, _, _ = spd_system(n=n, seed=22)
        p = BlockJacobiPreconditioner(a, block_size=block_size, storage=storage)
        ref = BlockJacobiPreconditioner(a, block_size=block_size)
        v = np.random.default_rng(23).standard_normal(n)
        out = p.apply(v)
        assert out.shape == (n,)
        assert np.all(np.isfinite(out))
        # the ladder perturbs, it must not distort: frsz2_16 keeps ~2
        # decimal digits on these well-scaled blocks
        assert np.allclose(out, ref.apply(v), rtol=5e-2, atol=5e-2)


class TestPreconditionedSolver:
    def test_preconditioning_reduces_iterations(self):
        p = make_problem("StocF-1465", "smoke")
        plain = CbGmres(p.a).solve(p.b, p.target_rrn)
        prec = CbGmres(p.a, preconditioner=JacobiPreconditioner(p.a)).solve(
            p.b, p.target_rrn
        )
        assert prec.converged
        assert prec.iterations <= plain.iterations

    def test_preconditioner_applies_counted(self):
        p = make_problem("lung2", "smoke")
        res = CbGmres(p.a, preconditioner=JacobiPreconditioner(p.a)).solve(
            p.b, p.target_rrn
        )
        # one apply per iteration plus one per restart's solution update
        assert res.stats.preconditioner_applies == res.iterations + res.stats.restarts

    def test_identity_preconditioner_matches_unpreconditioned(self):
        p = make_problem("lung2", "smoke")
        a_res = CbGmres(p.a).solve(p.b, p.target_rrn)
        b_res = CbGmres(p.a, preconditioner=IdentityPreconditioner()).solve(
            p.b, p.target_rrn
        )
        assert a_res.iterations == b_res.iterations
        assert np.array_equal(a_res.x, b_res.x)

    def test_compressed_basis_with_preconditioner(self):
        p = make_problem("lung2", "smoke")
        res = CbGmres(
            p.a, "frsz2_32", preconditioner=JacobiPreconditioner(p.a)
        ).solve(p.b, p.target_rrn)
        assert res.converged

    def test_solution_correctness_with_preconditioner(self):
        a, b, x_true = spd_system(n=60, seed=11)
        res = CbGmres(a, preconditioner=BlockJacobiPreconditioner(a, 10)).solve(
            b, 1e-12
        )
        assert res.converged
        assert np.linalg.norm(res.x - x_true) / np.linalg.norm(x_true) < 1e-9


# ----------------------------------------------------------------------
# ILU(0) in the compiled engine: factorisation and scheduled sweeps
# ----------------------------------------------------------------------


def _bits(x):
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


def _factor_state(p):
    """Everything ``ILU0Preconditioner`` set-up stores, as comparable arrays."""
    return [p._l_indptr, p._l_indices, p._u_indptr, p._u_indices] + [
        _bits(p._read(acc)) for acc in (p._l_acc, p._u_acc, p._d_acc)
    ]


def _shuffled_columns(a, seed):
    """``a`` with the entries of every row stored in a random order."""
    rng = np.random.default_rng(seed)
    order = np.lexsort((rng.random(a.nnz), a._rows))
    return CSRMatrix(a.shape, a.indptr, a.indices[order], a.data[order])


class TestIlu0FactorBitIdentity:
    """``prec.ilu0_factor``: the C loop replays the Python one."""

    @requires_jit
    @pytest.mark.parametrize("matrix", ["aniso_jump", "conv_dom", "bem_dense", "lung2"])
    @pytest.mark.parametrize("storage", ["float64", "frsz2_32"])
    def test_preconditioned_problems_factor_identically(self, matrix, storage):
        a = make_problem(matrix, "smoke").a
        ref = ILU0Preconditioner(a, storage=storage, backend="numpy")
        got = ILU0Preconditioner(a, storage=storage, backend="jit")
        for r, g in zip(_factor_state(ref), _factor_state(got)):
            assert r.dtype == g.dtype
            np.testing.assert_array_equal(r, g)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unsorted_columns_are_canonicalised(self, backend):
        # random pattern, diagonally dominant, every row stored shuffled:
        # the factors are those of the column-sorted matrix, bit for bit
        a, _, _ = spd_system(n=37, seed=31)
        keep = np.random.default_rng(32).random(a.nnz) < 0.4
        keep |= a._rows == a.indices
        sparse = COOMatrix(
            a.shape, a._rows[keep], a.indices[keep], a.data[keep]
        ).to_csr()
        ref = ILU0Preconditioner(sparse, backend="numpy")
        got = ILU0Preconditioner(_shuffled_columns(sparse, 33), backend=backend)
        for r, g in zip(_factor_state(ref), _factor_state(got)):
            np.testing.assert_array_equal(r, g)
        # and they are the factors: L U agrees with A on A's pattern
        n = sparse.n
        low, up = np.eye(n), np.zeros((n, n))
        for i in range(n):
            ls = slice(got._l_indptr[i], got._l_indptr[i + 1])
            us = slice(got._u_indptr[i], got._u_indptr[i + 1])
            low[i, got._l_indices[ls]] = got._l_acc.read()[ls]
            up[i, got._u_indices[us]] = got._u_acc.read()[us]
        up[np.arange(n), np.arange(n)] = got._d_acc.read()
        dense = sparse.to_dense()
        np.testing.assert_allclose((low @ up)[dense != 0], dense[dense != 0], rtol=1e-12)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_order_one_and_diagonal_matrices(self, backend):
        one = ILU0Preconditioner(
            CSRMatrix((1, 1), [0, 1], [0], [4.0]), backend=backend
        )
        assert one.apply(np.array([2.0])).tolist() == [0.5]
        assert one._l_acc is None and one._u_acc is None
        d = np.arange(1.0, 301.0)
        diag = ILU0Preconditioner(
            CSRMatrix((300, 300), np.arange(301), np.arange(300), d),
            storage="frsz2_32", backend=backend,
        )
        assert diag._l_indices.size == diag._u_indices.size == 0
        assert diag.nnz == 300
        v = np.linspace(-1.0, 1.0, 300)
        np.testing.assert_array_equal(_bits(diag.apply(v)), _bits(v / d))

    @requires_jit
    @pytest.mark.parametrize("missing", [True, False])
    def test_bad_pivot_is_reported_at_the_same_row(self, missing):
        # a good matrix with one pivot removed / eliminated to exactly 0,
        # behind rows that factor fine and ahead of another bad row
        a = tridiag(40, lo=-1.0, di=4.0, hi=-2.0)
        data = a.data.copy()
        rows, cols = a._rows, a.indices
        if missing:
            keep = ~((rows == cols) & np.isin(rows, (17, 30)))
            bad = COOMatrix(a.shape, rows[keep], cols[keep], data[keep]).to_csr()
        else:
            # u_ii = a_ii - l_i,i-1 * u_i-1,i: make row 17's exactly zero
            ok = ILU0Preconditioner(a)
            mult, sup = ok._l_acc.read()[16], ok._u_acc.read()[16]
            data[(rows == 17) & (cols == 17)] = mult * sup
            data[(rows == 30) & (cols == 30)] = 0.0
            bad = CSRMatrix(a.shape, a.indptr, a.indices, data)
        seen = []
        for backend in ("numpy", "jit"):
            with pytest.raises(ZeroPivotError) as err:
                ILU0Preconditioner(bad, backend=backend)
            seen.append((err.value.row, str(err.value)))
        assert seen[0] == seen[1] == (17, "ILU(0) zero pivot at row 17")

    def test_no_python_loop_over_rows_is_left_in_setup(self):
        # the jit set-up path is the C kernel plus vectorised numpy: its
        # wall must not grow like the old per-entry Python loops did
        # (1.3 s at n = 262 144; 0.14 s at this size)
        if not dispatch.jit_available():
            pytest.skip("needs the compiled engine")
        a = generators.aniso_jump_3d(32, 32, 32)
        walls = []
        for _ in range(3):
            t0 = time.perf_counter()
            ILU0Preconditioner(a, storage="frsz2_32", backend="jit")
            walls.append(time.perf_counter() - t0)
        assert min(walls) < 0.05


def _store(storage, values, backend="jit"):
    if values.size == 0:
        return None
    acc = make_accessor(storage, values.size, backend=backend)
    acc.write(values)
    return acc


def _read(acc):
    return acc.read() if acc is not None else np.empty(0)


def _random_triangle(rng, n, per_row, upper):
    """Strictly-triangular CSR pattern: up to ``per_row`` random columns
    anywhere on the row's side of the diagonal, sorted."""
    i = np.arange(n)[:, None]
    width = (n - 1 - i) if upper else i
    offs = (rng.random((n, per_row)) * width).astype(np.int64) + 1
    j = np.sort(i + offs if upper else i - offs, axis=1)
    keep = (width > 0) & np.concatenate(
        [np.ones((n, 1), bool), j[:, 1:] != j[:, :-1]], axis=1
    )
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    return indptr, j[keep].astype(np.int64)


def _ilu_patterns(a):
    p = ILU0Preconditioner(a, backend="numpy")
    return (p._l_indptr, p._l_indices), (p._u_indptr, p._u_indices)


def _sweep_patterns():
    """name -> ((L indptr, L indices), (U indptr, U indices))."""
    rows = dispatch.load_engine().sweep_rows
    rng = np.random.default_rng(77)
    empty = lambda n: (np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64))
    far = 5 * rows + 11
    return {
        # six planes of two chunks each: a wavefront of chunk levels
        "stencil": _ilu_patterns(generators.aniso_jump_3d(6, 16, 2 * rows // 16)),
        # every chunk waits for its neighbour: one chunk a level
        "chain": _ilu_patterns(tridiag(3 * rows + 5)),
        "far_rows": (_random_triangle(rng, far, 5, False),
                     _random_triangle(rng, far, 5, True)),
        "bem_dense": _ilu_patterns(make_problem("bem_dense", "smoke").a),
        "below_one_chunk": (_random_triangle(rng, 83, 4, False),
                            _random_triangle(rng, 83, 4, True)),
        "order_one": (empty(1), empty(1)),
        "empty_factor": (empty(rows + 9), empty(rows + 9)),
    }


def _check_sweeps(patterns, storage, seed, wrap=lambda acc: acc):
    """Both scheduled sweeps against the natural-order reference over
    the values ``storage`` holds, as raw bits."""
    (l_ip, l_cols), (u_ip, u_cols) = patterns
    n = l_ip.size - 1
    rng = np.random.default_rng(seed)
    l_acc = wrap(_store(storage, 0.4 * rng.standard_normal(l_cols.size)))
    u_acc = wrap(_store(storage, 0.4 * rng.standard_normal(u_cols.size)))
    d = rng.standard_normal(n)
    d_acc = wrap(_store(storage, d + 2.0 * np.sign(d)))
    b = rng.standard_normal(n) * np.exp2(rng.integers(-20, 20, n).astype(float))
    kernels = {
        backend: (dispatch.get_kernel("prec.lower_trisolve", backend)(l_ip, l_cols),
                  dispatch.get_kernel("prec.upper_trisolve", backend)(u_ip, u_cols))
        for backend in ("numpy", "jit")
    }
    ref_y = kernels["numpy"][0](_read(l_acc), b)
    ref_x = kernels["numpy"][1](_read(u_acc), _read(d_acc), ref_y)
    got_y = kernels["jit"][0](_stored_values(l_acc), b)
    got_x = kernels["jit"][1](_stored_values(u_acc), _stored_values(d_acc), got_y)
    np.testing.assert_array_equal(_bits(ref_y), _bits(got_y))
    np.testing.assert_array_equal(_bits(ref_x), _bits(got_x))
    assert np.all(np.isfinite(got_x))


class _CountingFrsz2(Frsz2Accessor):
    """A subclass may override ``read``: its payload must not be bypassed."""

    reads = 0

    def read(self):
        type(self).reads += 1
        return super().read()


@requires_jit
class TestScheduledSweeps:
    """``prec.lower_trisolve`` / ``prec.upper_trisolve``: the result is
    the natural-order recurrence's whatever order the engine visits."""

    @pytest.fixture(scope="class")
    def patterns(self):
        return _sweep_patterns()

    @pytest.mark.parametrize("storage", ["float64", "float32", "frsz2_32", "frsz2_16"])
    @pytest.mark.parametrize("name", [
        "stencil", "chain", "far_rows", "bem_dense", "below_one_chunk",
        "order_one", "empty_factor",
    ])
    def test_storage_x_pattern_matches_reference(self, patterns, name, storage):
        _check_sweeps(patterns[name], storage, seed=len(name))

    def test_patterns_cover_the_schedule_shapes(self, patterns):
        engine = dispatch.load_engine()
        rows, group = engine.sweep_rows, engine.sweep_chunks

        def shape(name):
            sweep = engine.lower_unit_trisolve(*patterns[name][0])
            return -(-sweep.n // rows), np.diff(sweep.level_ptr)

        chunks, per_level = shape("stencil")
        assert per_level.max() >= 2 and per_level.size < chunks
        chunks, per_level = shape("chain")
        assert chunks == 4 and per_level.tolist() == [1, 1, 1, 1]
        chunks, per_level = shape("empty_factor")
        assert chunks == 2 and per_level.tolist() == [2]
        assert shape("below_one_chunk")[0] == 1
        # one level holding more chunks than a lock-step group
        ip, cols = patterns["empty_factor"][0]
        wide = np.zeros((group + 2) * rows + 1, dtype=np.int64)
        assert np.diff(engine.lower_unit_trisolve(wide, cols).level_ptr).tolist() == [group + 2]

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=900),
        per_row=st.integers(min_value=1, max_value=6),
        storage=st.sampled_from(["float64", "float32", "frsz2_32", "frsz2_16"]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_random_triangular_patterns_match_reference(self, n, per_row, storage, seed):
        rng = np.random.default_rng(seed)
        _check_sweeps(
            (_random_triangle(rng, n, per_row, False),
             _random_triangle(rng, n, per_row, True)),
            storage, seed,
        )

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=3000),
        per_row=st.integers(min_value=1, max_value=4),
        reach=st.sampled_from([1.0, 0.3, 0.02]),
        upper=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_schedule_is_valid(self, n, per_row, reach, upper, seed):
        """Every chunk sits in exactly one level and everything a chunk
        reads from another chunk sits in a strictly earlier level."""
        engine = dispatch.load_engine()
        rows = engine.sweep_rows
        rng = np.random.default_rng(seed)
        ip, cols = _random_triangle(rng, n, per_row, upper)
        # shorten the reach so that far-apart chunks stay independent
        i = np.repeat(np.arange(n), np.diff(ip))
        cols = i + np.maximum(1, ((cols - i) * reach).astype(np.int64)) if upper \
            else i - np.maximum(1, ((i - cols) * reach).astype(np.int64))
        make = engine.upper_trisolve if upper else engine.lower_unit_trisolve
        sweep = make(ip, cols)
        chunks = -(-n // rows)
        assert sorted(sweep.order.tolist()) == list(range(chunks))
        assert sweep.level_ptr[0] == 0 and sweep.level_ptr[-1] == chunks
        assert np.all(np.diff(sweep.level_ptr) > 0)
        level = np.empty(chunks, dtype=np.int64)
        level[sweep.order] = np.repeat(
            np.arange(sweep.level_ptr.size - 1), np.diff(sweep.level_ptr)
        )
        reader, read = i // rows, cols // rows
        across = reader != read
        assert np.all(level[read[across]] < level[reader[across]])
        # and no level is later than its dependencies force it to be
        needed = np.zeros(chunks, dtype=np.int64)
        np.maximum.at(needed, reader[across], level[read[across]] + 1)
        np.testing.assert_array_equal(level, needed)

    def test_pattern_on_the_wrong_side_of_the_diagonal_is_rejected(self):
        engine = dispatch.load_engine()
        ip = np.array([0, 0, 1, 2], dtype=np.int64)
        with pytest.raises(ValueError, match="row 2 .* strictly below"):
            engine.lower_unit_trisolve(ip, np.array([0, 2]))
        with pytest.raises(ValueError, match="row 1 .* strictly above"):
            engine.upper_trisolve(ip, np.array([1, 3]))
        with pytest.raises(ValueError, match="indptr"):
            engine.lower_unit_trisolve(np.array([0, 1, 3]), np.array([0]))
        sweep = engine.lower_unit_trisolve(ip, np.array([0, 1]))
        with pytest.raises(ValueError, match="data must hold 2 values"):
            sweep(np.ones(3), np.ones(3))
        with pytest.raises(ValueError, match="length 3"):
            sweep(np.ones(2), np.ones(4))

    def test_wrapped_and_subclassed_accessors_take_the_read_fallback(self, patterns):
        from repro.robust.faults import FaultInjector, FaultyAccessor

        def subclassed(acc):
            if acc is None:
                return None
            sub = _CountingFrsz2(acc.n, bit_length=32, backend="jit")
            sub.write(acc.read())
            return sub

        _CountingFrsz2.reads = 0
        _check_sweeps(patterns["far_rows"], "frsz2_32", 5, wrap=subclassed)
        # once by the reference and once by the engine's source, per factor
        assert _CountingFrsz2.reads == 6

        quiet = FaultInjector(rate=0.0, seed=1)
        for storage in ("float64", "frsz2_32"):
            _check_sweeps(
                patterns["stencil"], storage, 6,
                wrap=lambda acc: acc and FaultyAccessor(acc, quiet, "readout_nan"),
            )

    def test_only_exact_accessors_are_read_in_place(self):
        x = np.linspace(1.0, 2.0, 64)
        f64 = _store("float64", x)
        assert _stored_values(f64) is f64._data
        compiled = _store("frsz2_32", x)
        table = _stored_values(compiled)
        assert not isinstance(table, np.ndarray) and table.count == 1
        interpreted = _stored_values(_store("frsz2_32", x, backend="numpy"))
        assert isinstance(interpreted, np.ndarray)

        class Scaled(Float64Accessor):
            def read(self):
                return 2.0 * super().read()

        scaled = Scaled(64)
        scaled.write(x)
        np.testing.assert_array_equal(_stored_values(scaled), 2.0 * x)
        assert _stored_values(None).size == 0

    def test_in_place_reads_see_the_stored_bits_as_they_are(self):
        # a fault injector flips stored bits in place between applies
        p = ILU0Preconditioner(tridiag(600), storage="frsz2_32", backend="jit")
        twin = ILU0Preconditioner(tridiag(600), storage="frsz2_32", backend="numpy")
        v = np.linspace(1.0, 2.0, 600)
        np.testing.assert_array_equal(_bits(p.apply(v)), _bits(twin.apply(v)))
        for q in (p, twin):
            q._u_acc.compressed.payload[300] ^= np.uint32(1 << 27)
        flipped = p.apply(v)
        np.testing.assert_array_equal(_bits(flipped), _bits(twin.apply(v)))
        assert not np.array_equal(flipped, ILU0Preconditioner(tridiag(600)).apply(v))


@requires_jit
class TestApplyMemory:
    """The saving stays saved: an apply allocates O(n), not O(nnz)."""

    @pytest.mark.parametrize("storage", ["float64", "frsz2_32"])
    def test_apply_makes_no_decoded_copy_of_a_factor(self, storage):
        a = generators.aniso_jump_3d(32, 32, 32)
        n = a.n
        p = ILU0Preconditioner(a, storage=storage, backend="jit")
        v = np.linspace(-1.0, 1.0, n)
        p.apply(v)
        tracemalloc.start()
        try:
            p.apply(v)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # y and the result (8 n bytes each) plus a chunk-sized work
        # buffer; one decoded copy of L alone is 3 n doubles
        assert p._l_indices.size > 2.8 * n
        assert peak < 3 * 8 * n


# ----------------------------------------------------------------------
# block-Jacobi set-up: one pass, one batched inversion
# ----------------------------------------------------------------------


def _block_inverses_one_by_one(a, bs):
    """The per-block set-up loop the one-pass code replaced (reference)."""
    n = a.n
    nb = -(-n // bs)
    flat = np.zeros(nb * bs * bs)
    rows = a._rows
    for b in range(nb):
        lo, hi = b * bs, min(b * bs + bs, n)
        m = hi - lo
        block = np.zeros((m, m))
        sel = (rows >= lo) & (rows < hi) & (a.indices >= lo) & (a.indices < hi)
        block[rows[sel] - lo, a.indices[sel] - lo] = a.data[sel]
        try:
            inv = np.linalg.inv(block)
        except np.linalg.LinAlgError:
            inv = np.eye(m)
        padded = np.zeros((bs, bs))
        padded[:m, :m] = inv
        flat[b * bs * bs:(b + 1) * bs * bs] = padded.ravel()
    return flat


class TestBlockJacobiSetup:
    @pytest.mark.parametrize("matrix", ["atmosmodd", "lung2", "bem_dense"])
    @pytest.mark.parametrize("bs", [8, 5, 1])
    def test_stored_blocks_equal_the_per_block_loop(self, matrix, bs):
        a = make_problem(matrix, "smoke").a
        p = BlockJacobiPreconditioner(a, block_size=bs)
        np.testing.assert_array_equal(
            _bits(p._acc.read()), _bits(_block_inverses_one_by_one(a, bs))
        )

    def test_block_larger_than_the_matrix(self):
        a, _, _ = spd_system(n=6, seed=40)
        p = BlockJacobiPreconditioner(a, block_size=8)
        np.testing.assert_array_equal(
            _bits(p._acc.read()), _bits(_block_inverses_one_by_one(a, 8))
        )

    def test_one_singular_block_alone_falls_back_to_identity(self):
        a = make_problem("lung2", "smoke").a
        data = a.data.copy()
        data[(a._rows >= 16) & (a._rows < 24)] = 0.0  # block 2 of bs = 8
        holed = CSRMatrix(a.shape, a.indptr, a.indices, data)
        flat = BlockJacobiPreconditioner(holed, block_size=8)._acc.read()
        np.testing.assert_array_equal(_bits(flat), _bits(_block_inverses_one_by_one(holed, 8)))
        np.testing.assert_array_equal(flat[2 * 64:3 * 64].reshape(8, 8), np.eye(8))
        # the short trailing block can be the singular one
        data = a.data.copy()
        data[a._rows >= 995] = 0.0
        tail = CSRMatrix(a.shape, a.indptr, a.indices, data)
        flat = BlockJacobiPreconditioner(tail, block_size=5)._acc.read()
        np.testing.assert_array_equal(_bits(flat), _bits(_block_inverses_one_by_one(tail, 5)))

    def test_setup_is_linear_in_the_matrix(self):
        # four length-nnz masks per block made this O(nnz n / bs): 2.1 s
        # at this size, against about 10 ms in one pass
        a = generators.convection_diffusion_3d(32, 32, 32)
        assert a.n == 32768
        walls = []
        for _ in range(3):
            t0 = time.perf_counter()
            BlockJacobiPreconditioner(a, block_size=8)
            walls.append(time.perf_counter() - t0)
        assert min(walls) < 0.1
