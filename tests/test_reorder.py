"""Tests for matrix reordering (RCM, magnitude grouping, permutations)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import (
    COOMatrix,
    Permutation,
    build_matrix,
    frsz2_kill_fraction,
    magnitude_ordering,
    permute_system,
    reverse_cuthill_mckee,
)
from repro.sparse.generators import poisson_3d, stencil_2d


def bandwidth(a) -> int:
    coo = a.to_coo()
    if coo.nnz == 0:
        return 0
    return int(np.abs(coo.rows - coo.cols).max())


class TestPermutation:
    def test_identity(self):
        p = Permutation(np.arange(5))
        v = np.arange(5.0)
        assert np.array_equal(p.apply_vector(v), v)

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(0)
        p = Permutation(rng.permutation(20))
        v = rng.standard_normal(20)
        assert np.array_equal(p.inverse.apply_vector(p.apply_vector(v)), v)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            Permutation(np.array([0, 0, 1]))
        with pytest.raises(ValueError):
            Permutation(np.array([0, 5]))
        with pytest.raises(ValueError):
            Permutation(np.array([[0, 1]]))

    def test_apply_matrix_is_symmetric_permutation(self):
        rng = np.random.default_rng(1)
        dense = rng.standard_normal((6, 6))
        rows, cols = np.nonzero(dense)
        a = COOMatrix((6, 6), rows, cols, dense[rows, cols]).to_csr()
        perm = Permutation(rng.permutation(6))
        pa = perm.apply_matrix(a).to_dense()
        expected = dense[np.ix_(perm.perm, perm.perm)]
        assert np.allclose(pa, expected)

    def test_apply_matrix_shape_mismatch(self):
        a = COOMatrix((3, 3), [0], [0], [1.0]).to_csr()
        with pytest.raises(ValueError):
            Permutation(np.arange(4)).apply_matrix(a)

    def test_apply_vector_shape_mismatch(self):
        with pytest.raises(ValueError):
            Permutation(np.arange(3)).apply_vector(np.ones(4))

    @given(st.integers(min_value=1, max_value=30))
    @settings(max_examples=50, deadline=None)
    def test_inverse_property(self, n):
        rng = np.random.default_rng(n)
        p = Permutation(rng.permutation(n))
        assert np.array_equal(p.inverse.inverse.perm, p.perm)


class TestRCM:
    def test_reduces_bandwidth_of_shuffled_stencil(self):
        a = stencil_2d(12, 12, 4.0, -1.0)
        rng = np.random.default_rng(2)
        shuffled = Permutation(rng.permutation(a.n)).apply_matrix(a)
        rcm = reverse_cuthill_mckee(shuffled)
        reordered = rcm.apply_matrix(shuffled)
        assert bandwidth(reordered) < bandwidth(shuffled) / 3

    def test_is_a_valid_permutation(self):
        a = poisson_3d(5, 5, 5)
        p = reverse_cuthill_mckee(a)
        assert sorted(p.perm.tolist()) == list(range(a.n))

    def test_handles_disconnected_components(self):
        # two disjoint 2-cliques
        a = COOMatrix(
            (4, 4), [0, 1, 2, 3], [1, 0, 3, 2], [1.0, 1.0, 1.0, 1.0]
        ).to_csr()
        p = reverse_cuthill_mckee(a)
        assert sorted(p.perm.tolist()) == [0, 1, 2, 3]

    def test_handles_isolated_nodes(self):
        a = COOMatrix((3, 3), [0], [1], [1.0]).to_csr()
        p = reverse_cuthill_mckee(a)
        assert sorted(p.perm.tolist()) == [0, 1, 2]

    def test_rejects_nonsquare(self):
        a = COOMatrix((2, 3), [0], [0], [1.0]).to_csr()
        with pytest.raises(ValueError):
            reverse_cuthill_mckee(a)

    def test_deterministic(self):
        a = poisson_3d(4, 4, 4)
        assert np.array_equal(
            reverse_cuthill_mckee(a).perm, reverse_cuthill_mckee(a).perm
        )


class TestMagnitudeOrdering:
    def test_sorts_by_magnitude(self):
        scale = np.array([1e3, 1e-3, 1.0, 1e6])
        p = magnitude_ordering(scale)
        assert np.array_equal(np.abs(scale)[p.perm], sorted(np.abs(scale)))

    def test_zeros_first_and_stable(self):
        scale = np.array([2.0, 0.0, 2.0, 0.0])
        p = magnitude_ordering(scale)
        assert p.perm.tolist() == [1, 3, 0, 2]

    def test_groups_exponents_into_blocks(self):
        """The point of the ordering: blocks stop mixing exponents."""
        rng = np.random.default_rng(3)
        v = rng.standard_normal(32 * 64)
        v[rng.random(v.size) < 1 / 16] *= 1e12  # scattered spikes
        before = frsz2_kill_fraction(v)
        after = frsz2_kill_fraction(magnitude_ordering(v).apply_vector(v))
        assert before > 0.5
        assert after < 0.1

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            magnitude_ordering(np.ones((2, 2)))


class TestKillFraction:
    def test_uniform_magnitudes_have_no_kill_risk(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(1024)
        v /= np.linalg.norm(v)
        assert frsz2_kill_fraction(v) == 0.0

    def test_mixed_blocks_detected(self):
        # one huge value per 32-block destroys its neighbours
        v = np.full(1024, 1e-12)
        v[::32] = 1.0
        assert frsz2_kill_fraction(v) == 1.0

    def test_empty_vector(self):
        assert frsz2_kill_fraction(np.zeros(0)) == 0.0

    def test_all_zero_vector(self):
        assert frsz2_kill_fraction(np.zeros(64)) == 0.0

    def test_zeros_do_not_count_as_killed(self):
        v = np.zeros(64)
        v[0] = 1.0
        assert frsz2_kill_fraction(v) == 0.0


class TestPermuteSystem:
    def test_solution_recoverable(self):
        from repro.solvers import CbGmres, make_problem

        p = make_problem("lung2", "smoke")
        perm = magnitude_ordering(p.b)
        a2, b2 = permute_system(p.a, p.b, perm)
        res = CbGmres(a2).solve(b2, p.target_rrn)
        assert res.converged
        x = np.empty_like(res.x)
        x[perm.perm] = res.x
        rrn = np.linalg.norm(p.b - p.a.matvec(x)) / np.linalg.norm(p.b)
        assert rrn <= p.target_rrn * (1 + 1e-9)

    def test_spectrum_preserved(self):
        a = poisson_3d(3, 3, 3, shift=0.1)
        perm = Permutation(np.random.default_rng(4).permutation(a.n))
        a2, _ = permute_system(a, np.ones(a.n), perm)
        e1 = np.sort(np.linalg.eigvalsh(a.to_dense()))
        e2 = np.sort(np.linalg.eigvalsh(a2.to_dense()))
        assert np.allclose(e1, e2)


class TestReorderingRescuesFrsz2:
    def test_magnitude_ordering_rescues_pr02r(self):
        """The actionable consequence of the paper's Section VI-A
        PR02R-vs-HV15R analysis: grouping unknowns by magnitude turns
        FRSZ2's worst case into a near-normal one."""
        from repro.solvers import CbGmres, make_problem

        p = make_problem("PR02R", "smoke")
        base = CbGmres(p.a, "frsz2_32").solve(p.b, p.target_rrn)
        perm = magnitude_ordering(np.abs(p.b))
        a2, b2 = permute_system(p.a, p.b, perm)
        reordered = CbGmres(a2, "frsz2_32").solve(b2, p.target_rrn)
        ref = CbGmres(p.a, "float64").solve(p.b, p.target_rrn)
        assert base.converged and reordered.converged
        assert reordered.iterations < base.iterations / 1.5
        # not fully normalized (later Krylov vectors reshuffle magnitudes)
        # but far closer to the float64 baseline than before
        assert reordered.iterations < 6 * ref.iterations
