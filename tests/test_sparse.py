"""Tests for the sparse-matrix substrate (COO, CSR, SpMV, I/O)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observe import Tracer
from repro.sparse import (
    COOMatrix, CSRMatrix, SpmvEngine, read_matrix_market, write_matrix_market,
)


def random_coo(m, n, nnz, seed=0):
    rng = np.random.default_rng(seed)
    return COOMatrix(
        (m, n),
        rng.integers(0, m, nnz),
        rng.integers(0, n, nnz),
        rng.standard_normal(nnz),
    )


class TestCOO:
    def test_validates_shapes(self):
        with pytest.raises(ValueError):
            COOMatrix((2, 2), [0], [0, 1], [1.0, 2.0])

    def test_validates_row_range(self):
        with pytest.raises(ValueError):
            COOMatrix((2, 2), [2], [0], [1.0])

    def test_validates_col_range(self):
        with pytest.raises(ValueError):
            COOMatrix((2, 2), [0], [-1], [1.0])

    def test_sum_duplicates(self):
        coo = COOMatrix((2, 2), [0, 0, 1], [1, 1, 0], [2.0, 3.0, 4.0])
        out = coo.sum_duplicates()
        assert out.nnz == 2
        dense = out.to_dense()
        assert dense[0, 1] == 5.0 and dense[1, 0] == 4.0

    def test_to_dense_sums_duplicates(self):
        coo = COOMatrix((1, 1), [0, 0], [0, 0], [1.0, 1.5])
        assert coo.to_dense()[0, 0] == 2.5

    def test_transpose(self):
        coo = random_coo(3, 5, 10, seed=1)
        assert np.array_equal(coo.transpose().to_dense(), coo.to_dense().T)

    def test_empty(self):
        coo = COOMatrix((3, 3), [], [], [])
        assert coo.to_csr().nnz == 0


class TestCSRConstruction:
    def test_from_coo_matches_dense(self):
        coo = random_coo(20, 15, 120, seed=2)
        # duplicate summation order differs between the two paths, so
        # agreement is up to floating-point associativity
        assert np.allclose(coo.to_csr().to_dense(), coo.to_dense(), rtol=1e-14)

    def test_invalid_indptr_shape(self):
        with pytest.raises(ValueError):
            CSRMatrix((2, 2), np.array([0, 1]), np.array([0]), np.array([1.0]))

    def test_indptr_must_end_at_nnz(self):
        with pytest.raises(ValueError):
            CSRMatrix((2, 2), np.array([0, 1, 3]), np.array([0, 1]), np.array([1.0, 2.0]))

    def test_indptr_must_be_monotone(self):
        with pytest.raises(ValueError):
            CSRMatrix((2, 2), np.array([0, 2, 1]), np.array([0, 1]), np.array([1.0, 2.0]))

    def test_column_out_of_range(self):
        with pytest.raises(ValueError):
            CSRMatrix((2, 2), np.array([0, 1, 2]), np.array([0, 5]), np.array([1.0, 2.0]))

    def test_roundtrip_through_coo(self):
        a = random_coo(10, 10, 40, seed=3).to_csr()
        b = a.to_coo().to_csr()
        assert np.array_equal(a.to_dense(), b.to_dense())


class TestSpMV:
    def test_matches_dense_matvec(self):
        a = random_coo(30, 25, 200, seed=4).to_csr()
        x = np.random.default_rng(5).standard_normal(25)
        assert np.allclose(a.matvec(x), a.to_dense() @ x)

    def test_matmul_operator(self):
        a = random_coo(5, 5, 10, seed=6).to_csr()
        x = np.ones(5)
        assert np.array_equal(SpmvEngine(a, "csr") @ x, a.matvec(x))

    def test_empty_rows_give_zero(self):
        # row 1 empty
        a = COOMatrix((3, 3), [0, 2], [0, 2], [1.0, 2.0]).to_csr()
        y = a.matvec(np.ones(3))
        assert y[1] == 0.0

    def test_wrong_size_raises(self):
        a = random_coo(3, 4, 5, seed=9).to_csr()
        with pytest.raises(ValueError):
            a.matvec(np.ones(3))
        with pytest.raises(ValueError):
            SpmvEngine(a, "csr").matvec(np.ones(3))

    def test_out_parameter(self):
        a = random_coo(6, 6, 12, seed=10).to_csr()
        x = np.ones(6)
        out = np.empty(6)
        ret = SpmvEngine(a, "csr").matvec(x, out=out)
        assert ret is out
        assert np.array_equal(out, a.matvec(x))

    def test_counter_accumulates(self):
        a = random_coo(6, 6, 12, seed=11).to_csr()
        engine = SpmvEngine(a, "csr")
        engine.tracer = t = Tracer()
        engine.matvec(np.ones(6))
        engine.matvec(np.ones(6))
        assert t.counters["spmv.calls"] == 2
        assert t.counters["spmv.flops"] == 4 * a.nnz

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=120))
    @settings(max_examples=60, deadline=None)
    def test_property_matches_dense(self, n, nnz):
        a = random_coo(n, n, nnz, seed=nnz * 31 + n).to_csr()
        x = np.random.default_rng(n).standard_normal(n)
        assert np.allclose(a.matvec(x), a.to_dense() @ x, atol=1e-12)


class TestCSRHelpers:
    def test_diagonal(self):
        a = COOMatrix((3, 3), [0, 1, 1, 2], [0, 1, 2, 0], [5.0, 7.0, 1.0, 2.0]).to_csr()
        assert np.array_equal(a.diagonal(), [5.0, 7.0, 0.0])

    def test_row_norms(self):
        a = COOMatrix((2, 3), [0, 0, 1], [0, 1, 2], [3.0, -4.0, 2.0]).to_csr()
        assert np.array_equal(a.row_norms(1), [7.0, 2.0])
        assert np.array_equal(a.row_norms(np.inf), [4.0, 2.0])
        assert np.allclose(a.row_norms(2), [5.0, 2.0])

    def test_row_norms_bad_ord(self):
        a = random_coo(2, 2, 2, seed=12).to_csr()
        with pytest.raises(ValueError):
            a.row_norms(3)

    def test_scale_rows_cols(self):
        a = random_coo(4, 4, 10, seed=13).to_csr()
        dr = np.array([1.0, 2.0, 0.5, 3.0])
        dc = np.array([2.0, 1.0, 1.0, 0.25])
        scaled = a.scale_rows_cols(dr, dc)
        expected = np.diag(dr) @ a.to_dense() @ np.diag(dc)
        assert np.allclose(scaled.to_dense(), expected)

    def test_scale_wrong_shape_raises(self):
        a = random_coo(3, 3, 4, seed=14).to_csr()
        with pytest.raises(ValueError):
            a.scale_rows_cols(np.ones(2), np.ones(3))

    def test_transpose(self):
        a = random_coo(5, 7, 20, seed=15).to_csr()
        assert np.array_equal(a.transpose().to_dense(), a.to_dense().T)


class TestMatrixMarket:
    def test_roundtrip(self, tmp_path):
        a = random_coo(10, 8, 30, seed=16).to_csr()
        path = tmp_path / "test.mtx"
        write_matrix_market(path, a)
        b = read_matrix_market(path)
        assert b.shape == a.shape
        assert np.array_equal(a.to_dense(), b.to_dense())

    def test_roundtrip_gzip(self, tmp_path):
        a = random_coo(5, 5, 10, seed=17).to_csr()
        path = tmp_path / "test.mtx.gz"
        write_matrix_market(path, a)
        assert np.array_equal(read_matrix_market(path).to_dense(), a.to_dense())

    def test_values_roundtrip_exactly(self, tmp_path):
        a = COOMatrix((2, 2), [0, 1], [0, 1], [1.0 / 3.0, -1e-300]).to_csr()
        path = tmp_path / "exact.mtx"
        write_matrix_market(path, a)
        b = read_matrix_market(path)
        assert np.array_equal(b.data, a.data)

    def test_symmetric_expansion(self, tmp_path):
        path = tmp_path / "sym.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 4\n1 1 2.0\n2 1 -1.0\n3 2 0.5\n3 3 1.0\n"
        )
        a = read_matrix_market(path)
        d = a.to_dense()
        assert d[0, 1] == -1.0 and d[1, 0] == -1.0
        assert d[1, 2] == 0.5 and d[2, 1] == 0.5

    def test_skew_symmetric_expansion(self, tmp_path):
        path = tmp_path / "skew.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real skew-symmetric\n"
            "2 2 1\n2 1 3.0\n"
        )
        d = read_matrix_market(path).to_dense()
        assert d[1, 0] == 3.0 and d[0, 1] == -3.0

    def test_pattern_field(self, tmp_path):
        path = tmp_path / "pat.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n"
            "2 2 2\n1 1\n2 2\n"
        )
        d = read_matrix_market(path).to_dense()
        assert np.array_equal(d, np.eye(2))

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "com.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "% a comment\n% another\n1 1 1\n1 1 42.0\n"
        )
        assert read_matrix_market(path).to_dense()[0, 0] == 42.0

    def test_rejects_non_mm(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("hello\n")
        with pytest.raises(ValueError):
            read_matrix_market(path)

    def test_rejects_complex_field(self, tmp_path):
        path = tmp_path / "cplx.mtx"
        path.write_text("%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n")
        with pytest.raises(ValueError):
            read_matrix_market(path)
