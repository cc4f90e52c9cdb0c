"""Tests for the CB-GMRES solver stack."""

import warnings

import numpy as np
import pytest

from repro.accessor import Frsz2Accessor
from repro.sparse import COOMatrix, build_matrix
from repro.solvers import (
    CbGmres,
    GivensLeastSquares,
    KrylovBasis,
    calibrate_target,
    cgs_orthogonalize,
    make_expected_solution,
    make_problem,
    make_rhs,
)

from .backends import BACKENDS


def small_system(n=60, seed=0):
    rng = np.random.default_rng(seed)
    dense = np.eye(n) * 4 + rng.standard_normal((n, n)) * 0.2
    rows, cols = np.nonzero(dense)
    a = COOMatrix((n, n), rows, cols, dense[rows, cols]).to_csr()
    x = rng.standard_normal(n)
    return a, a.matvec(x), x


class TestKrylovBasis:
    def test_write_read_roundtrip_float64(self):
        basis = KrylovBasis(10, 3, "float64")
        v = np.linspace(0, 1, 10)
        basis.write_vector(0, v)
        assert np.array_equal(basis.vector(0), v)

    def test_cache_matches_accessor_decompression(self):
        basis = KrylovBasis(64, 2, "frsz2_32")
        rng = np.random.default_rng(1)
        v = rng.standard_normal(64)
        basis.write_vector(0, v)
        acc = Frsz2Accessor(64, 32)
        acc.write(v)
        assert np.array_equal(basis.vector(0), acc.read())

    def test_dot_basis_and_combine(self):
        basis = KrylovBasis(20, 4, "float64")
        rng = np.random.default_rng(2)
        vs = [rng.standard_normal(20) for _ in range(3)]
        for j, v in enumerate(vs):
            basis.write_vector(j, v)
        w = rng.standard_normal(20)
        h = basis.dot_basis(3, w)
        assert np.allclose(h, [v @ w for v in vs])
        y = np.array([1.0, -2.0, 0.5])
        assert np.allclose(basis.combine(3, y), sum(c * v for c, v in zip(y, vs)))

    def test_unwritten_slot_raises(self):
        basis = KrylovBasis(5, 2)
        with pytest.raises(IndexError):
            basis.vector(0)

    def test_out_of_range_slot_raises(self):
        basis = KrylovBasis(5, 2)
        with pytest.raises(IndexError):
            basis.write_vector(3, np.zeros(5))

    def test_reset_forgets(self):
        basis = KrylovBasis(5, 2)
        basis.write_vector(0, np.ones(5))
        basis.reset()
        with pytest.raises(IndexError):
            basis.vector(0)

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            KrylovBasis(5, 0)

    def test_bits_per_value(self):
        assert KrylovBasis(32, 2, "float32").bits_per_value == 32.0
        assert KrylovBasis(320, 2, "frsz2_32").bits_per_value == pytest.approx(33.0)


class TestOrthogonalization:
    def _basis_with_orthonormal_vectors(self, n=50, k=4, seed=3):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((n, k)))
        basis = KrylovBasis(n, k + 1, "float64")
        for j in range(k):
            basis.write_vector(j, q[:, j])
        return basis, q

    def test_cgs_produces_orthogonal_vector(self):
        basis, q = self._basis_with_orthonormal_vectors()
        w = np.random.default_rng(4).standard_normal(50)
        res = cgs_orthogonalize(basis, 4, w)
        assert np.abs(q.T @ res.w).max() < 1e-12
        assert res.h_next == pytest.approx(np.linalg.norm(res.w))

    def test_cgs_coefficients_reconstruct_w(self):
        basis, q = self._basis_with_orthonormal_vectors()
        w = np.random.default_rng(5).standard_normal(50)
        res = cgs_orthogonalize(basis, 4, w)
        assert np.allclose(q @ res.h + res.w, w, atol=1e-12)

    def test_reorthogonalization_triggers_for_nearly_dependent_vector(self):
        basis, q = self._basis_with_orthonormal_vectors()
        # w almost inside span(q): first CGS pass leaves a tiny remainder
        w = q @ np.ones(4) + 1e-9 * np.random.default_rng(6).standard_normal(50)
        res = cgs_orthogonalize(basis, 4, w)
        assert res.reorthogonalized
        assert np.abs(q.T @ res.w).max() < 1e-14

    def test_breakdown_detected_for_dependent_vector(self):
        basis, q = self._basis_with_orthonormal_vectors()
        res = cgs_orthogonalize(basis, 4, q @ np.array([1.0, 2.0, 3.0, 4.0]))
        assert res.breakdown


class TestGivensLeastSquares:
    def test_matches_dense_lstsq(self):
        rng = np.random.default_rng(8)
        m = 6
        beta = 2.5
        lsq = GivensLeastSquares(m, beta)
        h_full = np.zeros((m + 1, m))
        for j in range(m):
            h = rng.standard_normal(j + 1)
            h_next = abs(rng.standard_normal()) + 0.5
            h_full[: j + 1, j] = h
            h_full[j + 1, j] = h_next
            lsq.append_column(h, h_next)
        rhs = np.zeros(m + 1)
        rhs[0] = beta
        y_ref, res, *_ = np.linalg.lstsq(h_full, rhs, rcond=None)
        y = lsq.solve()
        assert np.allclose(y, y_ref, atol=1e-10)
        assert lsq.residual_norm == pytest.approx(
            np.linalg.norm(rhs - h_full @ y_ref), abs=1e-10
        )

    def test_residual_norm_monotonically_decreases(self):
        rng = np.random.default_rng(9)
        lsq = GivensLeastSquares(10, 1.0)
        prev = 1.0
        for j in range(10):
            r = lsq.append_column(rng.standard_normal(j + 1), 1.0)
            assert r <= prev + 1e-14
            prev = r

    def test_full_system_raises(self):
        lsq = GivensLeastSquares(1, 1.0)
        lsq.append_column(np.array([1.0]), 0.5)
        with pytest.raises(RuntimeError):
            lsq.append_column(np.array([1.0]), 0.5)

    def test_empty_solve(self):
        assert GivensLeastSquares(3, 1.0).solve().size == 0

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            GivensLeastSquares(0, 1.0)


class TestCbGmresBasics:
    def test_solves_small_system_exactly(self):
        a, b, x_true = small_system()
        res = CbGmres(a, "float64", m=30).solve(b, 1e-12)
        assert res.converged
        assert np.linalg.norm(res.x - x_true) / np.linalg.norm(x_true) < 1e-9

    def test_final_rrn_is_honest(self):
        a, b, _ = small_system(seed=1)
        res = CbGmres(a, "float64", m=30).solve(b, 1e-10)
        check = np.linalg.norm(b - a.matvec(res.x)) / np.linalg.norm(b)
        assert res.final_rrn == pytest.approx(check, rel=1e-12)
        assert res.final_rrn <= 1e-10

    def test_zero_rhs(self):
        a, _, _ = small_system(seed=2)
        res = CbGmres(a).solve(np.zeros(a.n), 1e-10)
        assert res.converged
        assert np.array_equal(res.x, np.zeros(a.n))

    def test_initial_guess_honored(self):
        a, b, x_true = small_system(seed=3)
        res = CbGmres(a, m=30).solve(b, 1e-12, x0=x_true.copy())
        assert res.converged
        assert res.iterations == 0  # already converged at the first check

    def test_nonsquare_matrix_rejected(self):
        coo = COOMatrix((3, 4), [0], [0], [1.0])
        with pytest.raises(ValueError):
            CbGmres(coo.to_csr())

    def test_wrong_rhs_shape_rejected(self):
        a, _, _ = small_system(seed=4)
        with pytest.raises(ValueError):
            CbGmres(a).solve(np.ones(a.n + 1), 1e-8)

    def test_negative_target_rejected(self):
        a, b, _ = small_system(seed=5)
        with pytest.raises(ValueError):
            CbGmres(a).solve(b, -1.0)

    def test_max_iter_cap(self):
        p = make_problem("atmosmodd", "smoke")
        res = CbGmres(p.a, "float64", max_iter=10, stall_restarts=None).solve(
            p.b, 1e-30
        )
        assert not res.converged
        assert res.iterations <= 10 + res.stats.restarts  # cap respected per cycle

    def test_history_kinds(self):
        p = make_problem("atmosmodd", "smoke")
        res = CbGmres(p.a, "float64").solve(p.b, p.target_rrn)
        kinds = {s.kind for s in res.history}
        assert kinds == {"implicit", "explicit"}
        its, rrns = res.history_arrays("explicit")
        assert rrns[0] == pytest.approx(1.0)  # x0 = 0 -> rrn = 1

    def test_record_history_off(self):
        p = make_problem("atmosmodd", "smoke")
        res = CbGmres(p.a).solve(p.b, p.target_rrn, record_history=False)
        assert res.history == []
        assert res.converged


class TestCbGmresRestart:
    def test_restart_happens_and_recovers(self):
        p = make_problem("atmosmodd", "default")
        res = CbGmres(p.a, "float64", m=100).solve(p.b, p.target_rrn)
        assert res.converged
        assert res.stats.restarts >= 2  # needs > 100 iterations
        # explicit samples exist at each restart boundary
        its, _ = res.history_arrays("explicit")
        assert its.size == res.stats.restarts + 1

    def test_explicit_jump_visible_for_compressed_storage(self):
        """Fig. 9a: the implicit estimate is optimistic for compressed
        bases; the explicit residual at restart jumps back up."""
        p = make_problem("atmosmodd", "default")
        res = CbGmres(p.a, "float16", m=100).solve(p.b, p.target_rrn)
        hist = res.history
        jumps = 0
        for i in range(1, len(hist)):
            if hist[i].kind == "explicit" and hist[i - 1].kind == "implicit":
                if hist[i].rrn > hist[i - 1].rrn * 1.5:
                    jumps += 1
        assert jumps >= 1

    def test_small_restart_converges_slower(self):
        p = make_problem("atmosmodd", "smoke")
        full = CbGmres(p.a, m=100).solve(p.b, p.target_rrn)
        short = CbGmres(p.a, m=10).solve(p.b, p.target_rrn)
        assert short.iterations >= full.iterations


class TestCbGmresStorageFormats:
    @pytest.mark.parametrize(
        "fmt", ["float64", "float32", "float16", "frsz2_32", "frsz2_16"]
    )
    def test_converges_on_easy_problem(self, fmt):
        p = make_problem("lung2", "smoke")
        res = CbGmres(p.a, fmt).solve(p.b, p.target_rrn)
        assert res.converged, f"{fmt} failed: rrn={res.final_rrn}"

    def test_paper_format_ordering_on_atmosmod(self):
        """Fig. 8's atmosmod ordering: f64 < frsz2_32 < f32 < f16."""
        p = make_problem("atmosmodd", "default")
        iters = {}
        for fmt in ("float64", "frsz2_32", "float32", "float16"):
            iters[fmt] = CbGmres(p.a, fmt).solve(p.b, p.target_rrn).iterations
        assert iters["float64"] < iters["frsz2_32"] < iters["float32"] < iters["float16"]

    def test_roundtrip_compressor_storage(self):
        p = make_problem("lung2", "smoke")
        res = CbGmres(p.a, "zfp_fr_32").solve(p.b, p.target_rrn)
        assert res.converged
        assert res.stats.bits_per_value < 34

    def test_custom_accessor_factory(self):
        from repro.accessor import accessor_factory

        p = make_problem("lung2", "smoke")
        solver = CbGmres(
            p.a, "frsz2_32", storage_factory=accessor_factory("frsz2_32", block_size=8)
        )
        res = solver.solve(p.b, p.target_rrn)
        assert res.converged

    def test_pr02r_discriminates_formats(self):
        """The PR02R pattern (Fig. 7/9b): frsz2_32 much slower than
        float64; float32 matches float64; float16 never converges."""
        p = make_problem("PR02R", "default")
        r64 = CbGmres(p.a, "float64").solve(p.b, p.target_rrn)
        r32 = CbGmres(p.a, "float32").solve(p.b, p.target_rrn)
        rf = CbGmres(p.a, "frsz2_32").solve(p.b, p.target_rrn)
        r16 = CbGmres(p.a, "float16", max_iter=3000).solve(p.b, p.target_rrn)
        assert r64.converged and r32.converged and rf.converged
        assert r32.iterations <= r64.iterations * 1.2
        assert rf.iterations > 3 * r64.iterations
        assert not r16.converged


class TestStallDetection:
    def test_stall_fires_on_hopeless_combination(self):
        p = make_problem("PR02R", "default")
        res = CbGmres(p.a, "float16", max_iter=5000, stall_restarts=5).solve(
            p.b, p.target_rrn
        )
        assert res.stalled
        assert res.iterations < 5000

    def test_stall_disabled_runs_to_cap(self):
        p = make_problem("PR02R", "smoke")
        res = CbGmres(p.a, "float16", max_iter=600, stall_restarts=None).solve(
            p.b, p.target_rrn
        )
        assert not res.stalled


class TestCalibration:
    def test_calibration_matches_paper_procedure(self):
        a, b, _ = small_system(seed=10)
        cal = calibrate_target(a, b, max_iter=200, wiggle=2.0)
        assert cal.target_rrn == pytest.approx(cal.achieved_rrn * 2.0)
        assert cal.achieved_rrn < 1e-12  # easy system: machine-level

    def test_calibrated_target_is_achievable(self):
        p = make_problem("atmosmodd", "smoke")
        cal = calibrate_target(p.a, p.b, max_iter=500, name="atmosmodd")
        res = CbGmres(p.a, "float64").solve(p.b, cal.target_rrn)
        assert res.converged


class TestProblems:
    def test_expected_solution_is_normalized_sin(self):
        x = make_expected_solution(100)
        assert np.linalg.norm(x) == pytest.approx(1.0)
        s = np.sin(np.arange(100))
        assert np.allclose(x, s / np.linalg.norm(s))

    def test_rhs_consistent(self):
        p = make_problem("lung2", "smoke")
        assert np.allclose(p.b, p.a.matvec(p.x_sol))

    def test_make_problem_target_override(self):
        p = make_problem("lung2", "smoke", target_rrn=1e-3)
        assert p.target_rrn == 1e-3


class TestSolveStats:
    def test_stats_are_consistent(self):
        p = make_problem("atmosmodd", "smoke")
        res = CbGmres(p.a, "frsz2_32").solve(p.b, p.target_rrn)
        s = res.stats
        assert s.iterations == res.iterations
        assert s.n == p.a.n
        assert s.nnz == p.a.nnz
        # 33 bits/value plus last-block padding (n not divisible by 32)
        assert s.bits_per_value == pytest.approx(33.0, abs=1.0)
        # one SpMV per iteration plus one per restart check plus final
        assert s.spmv_calls == s.iterations + s.restarts + 2
        # each iteration writes at most one basis vector (+1 per cycle)
        assert s.basis_writes <= s.iterations + s.restarts + 1
        assert s.basis_reads > 0


@pytest.mark.filterwarnings("error")
class TestHostileRightHandSide:
    """ROADMAP 6(e): a NaN in ``b`` used to end as ``converged=False``
    without a word and an Inf as a ``RuntimeWarning`` from a division deep
    in the cycle; both, and the same in ``x0``, are refused at the entry,
    by name — no warning on the way."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["b", "x0"])
    @pytest.mark.parametrize("entry, width", [("solve", 1), ("fgmres", 1)])
    def test_a_non_finite_column_is_refused_by_name(self, entry, width, where, bad):
        from repro.solvers import FlexibleGmres

        a, b, _ = small_system()
        vectors = {"b": b.copy(), "x0": np.zeros(60)}
        vectors[where][7] = bad
        named = "x0" if where == "x0" else "right-hand side"
        solver = (FlexibleGmres if entry == "fgmres" else CbGmres)(
            a, "frsz2_32", m=10, max_iter=50)
        with pytest.raises(ValueError, match=f"{named} holds a NaN or an Inf"):
            solver.solve(vectors["b"], 1e-10, x0=vectors["x0"])


def _dense_system(dense, b):
    """(CSR A, dense A, b) of a small dense system."""
    dense = np.asarray(dense, dtype=np.float64)
    rows, cols = np.nonzero(dense)
    a = COOMatrix(dense.shape, rows, cols, dense[rows, cols]).to_csr()
    return a, dense, np.asarray(b, dtype=np.float64)


class TestHostileSystems:
    """ROADMAP 7(e): degenerate systems end in a finite ``x`` whose
    reported ``final_rrn`` is the true one, with no exception and no
    warning; the consistent ones converge.  The inconsistent ones can
    end worse than ``x0 = 0`` under lossy storage (docs/PRECISION.md)."""

    #: name -> (A, b, consistent); every solve restarts at m = 10 > n
    SYSTEMS = {
        "n=1": ([[3.0]], [1.5], True),
        "m>n": ([[4.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 4.0]], [1.0, 2.0, 3.0],
                True),
        "zero-rhs": ([[4.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 4.0]], [0.0] * 3,
                     True),
        "A=0": (np.zeros((3, 3)), [1.0, 1.0, 1.0], False),
        "zero-row": (np.diag([1.0, 0.0, 2.0]), [1.0, 1.0, 1.0], False),
        "singular-2x2": ([[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0], False),
    }

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("basis_mode", ["cached", "streaming"])
    @pytest.mark.parametrize("storage", ["float64", "frsz2_32", "frsz2_16"])
    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_ends_finite_and_honest(self, system, storage, basis_mode, backend):
        dense, b, consistent = self.SYSTEMS[system]
        a, dense, b = _dense_system(dense, b)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = CbGmres(a, storage, m=10, max_iter=200, basis_mode=basis_mode,
                          backend=backend).solve(b, 1e-10)
        assert np.all(np.isfinite(res.x))
        bnorm = np.linalg.norm(b)
        if bnorm == 0.0:
            assert res.final_rrn == 0.0 and not res.x.any()
        else:
            true_rrn = np.linalg.norm(b - dense @ res.x) / bnorm
            assert res.final_rrn == pytest.approx(true_rrn, rel=1e-9, abs=1e-14)
        assert res.converged == consistent
