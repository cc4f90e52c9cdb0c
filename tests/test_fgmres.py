"""Tests for flexible GMRES with a compressed preconditioned basis."""

import numpy as np
import pytest

from repro.gpu import GmresTimingModel
from repro.solvers import (
    CbGmres,
    FlexibleGmres,
    JacobiPreconditioner,
    make_problem,
)
from repro.sparse import COOMatrix, SpmvEngine


class TestBasics:
    def test_solves_to_target(self):
        p = make_problem("lung2", "smoke")
        res = FlexibleGmres(p.a, "frsz2_32").solve(p.b, p.target_rrn)
        assert res.converged
        assert res.final_rrn <= p.target_rrn * (1 + 1e-9)

    def test_storage_label(self):
        p = make_problem("lung2", "smoke")
        res = FlexibleGmres(p.a, "float16").solve(p.b, p.target_rrn)
        assert res.storage == "fgmres[float16]"

    def test_zero_rhs(self):
        p = make_problem("lung2", "smoke")
        res = FlexibleGmres(p.a).solve(np.zeros(p.a.n), 1e-8)
        assert res.converged and res.iterations == 0

    def test_nonsquare_rejected(self):
        a = COOMatrix((2, 3), [0], [0], [1.0]).to_csr()
        with pytest.raises(ValueError):
            FlexibleGmres(a)

    def test_invalid_restart(self):
        p = make_problem("lung2", "smoke")
        with pytest.raises(ValueError):
            FlexibleGmres(p.a, m=0)

    def test_wrong_rhs_shape(self):
        p = make_problem("lung2", "smoke")
        with pytest.raises(ValueError):
            FlexibleGmres(p.a).solve(np.ones(p.a.n + 1), 1e-8)

    def test_identity_z_storage_matches_cb_gmres_float64(self):
        p = make_problem("atmosmodd", "smoke")
        fg = FlexibleGmres(p.a, "float64").solve(p.b, p.target_rrn)
        cb = CbGmres(p.a, "float64").solve(p.b, p.target_rrn)
        assert fg.iterations == cb.iterations

    def test_with_preconditioner(self):
        p = make_problem("StocF-1465", "smoke")
        res = FlexibleGmres(
            p.a, "frsz2_32", preconditioner=JacobiPreconditioner(p.a)
        ).solve(p.b, p.target_rrn)
        assert res.converged


class TestRef17TradeOff:
    """The paper's related-work characterization of Agullo et al. [17]:
    'This improves the numerical stability at the price of reduced
    runtime benefits.'"""

    def test_stability_on_frsz2_worst_case(self):
        """Compressing Z instead of V sidesteps the PR02R failure: the
        Arnoldi basis is exact, so FGMRES tracks float64 iterations."""
        p = make_problem("PR02R", "smoke")
        cb64 = CbGmres(p.a, "float64").solve(p.b, p.target_rrn)
        cb_frsz2 = CbGmres(p.a, "frsz2_32").solve(p.b, p.target_rrn)
        fg_frsz2 = FlexibleGmres(p.a, "frsz2_32").solve(p.b, p.target_rrn)
        assert fg_frsz2.converged
        assert fg_frsz2.iterations <= cb64.iterations * 1.3
        assert cb_frsz2.iterations > 2 * fg_frsz2.iterations

    def test_reduced_runtime_benefit(self):
        """...but the uncompressed V basis halves the traffic savings."""
        p = make_problem("atmosmodd", "default")
        model = GmresTimingModel()
        base_t = model.time_result(
            CbGmres(p.a, "float64").solve(p.b, p.target_rrn)
        ).total_seconds
        cb = CbGmres(p.a, "frsz2_32").solve(p.b, p.target_rrn)
        fg = FlexibleGmres(p.a, "frsz2_32").solve(p.b, p.target_rrn)
        cb_speedup = base_t / model.time_stats(cb.stats, "frsz2_32").total_seconds
        fg_speedup = base_t / model.time_stats(fg.stats, "frsz2_32").total_seconds
        assert cb_speedup > fg_speedup

    def test_uncompressed_reads_accounted(self):
        p = make_problem("lung2", "smoke")
        fg = FlexibleGmres(p.a, "frsz2_32").solve(p.b, p.target_rrn)
        cb = CbGmres(p.a, "frsz2_32").solve(p.b, p.target_rrn)
        assert fg.stats.uncompressed_basis_reads > 0
        assert cb.stats.uncompressed_basis_reads == 0
        # FGMRES reads the compressed basis only at solution updates,
        # so its compressed-read count stays far below CB-GMRES's
        # (which reads the whole basis every orthogonalization)
        assert fg.stats.basis_reads <= fg.iterations
        assert cb.stats.basis_reads > cb.iterations

    def test_restart_cycle_works(self):
        p = make_problem("atmosmodd", "smoke")
        res = FlexibleGmres(p.a, "frsz2_32", m=20).solve(p.b, p.target_rrn)
        assert res.converged
        assert res.stats.restarts >= 2


class _NanAfter:
    """An operator decorator whose matvec turns NaN after ``clean`` calls."""

    def __init__(self, a, clean):
        self.inner = inner = SpmvEngine(a, "csr")
        self.shape = inner.shape
        self.nnz = inner.nnz
        self.resolved_format = inner.resolved_format
        self.padded_entries = inner.padded_entries
        self.clean = clean
        self.calls = 0

    def matvec(self, x):
        self.calls += 1
        y = self.inner.matvec(x)
        if self.calls > self.clean:
            y = np.full_like(y, np.nan)
        return y


class TestArnoldiCoreInheritance:
    """FGMRES is the shared restart cycle with two hooks replaced, so
    it inherits what the cycle carries: recovery and tracer spans."""

    @pytest.mark.parametrize("z_storage", ["float64", "frsz2_32"])
    def test_nan_operator_ends_like_cb_gmres(self, z_storage):
        p = make_problem("lung2", "smoke")
        cb = CbGmres(_NanAfter(p.a, 5), "frsz2_32", m=20).solve(
            p.b, p.target_rrn
        )
        fg = FlexibleGmres(_NanAfter(p.a, 5), z_storage, m=20).solve(
            p.b, p.target_rrn
        )
        for res in (cb, fg):
            assert not res.converged
            assert res.recovery_exhausted
            assert np.all(np.isfinite(res.x))
            assert np.isfinite(res.final_rrn)
            assert res.recoveries > 0
            assert {e.kind for e in res.breakdown_events} <= {
                "nonfinite_spmv", "nonfinite_residual",
            }
        assert [e.kind for e in fg.breakdown_events] == [
            e.kind for e in cb.breakdown_events
        ]
        # the clean prefix was salvaged into a partial update
        assert fg.iterations == cb.iterations > 0

    def test_traced_solve_emits_the_cycle_spans(self):
        from repro.observe import Tracer

        p = make_problem("lung2", "smoke")
        solver = FlexibleGmres(p.a, "frsz2_32")
        solver.tracer = Tracer()
        traced = solver.solve(p.b, p.target_rrn)
        plain = FlexibleGmres(p.a, "frsz2_32").solve(p.b, p.target_rrn)
        assert np.array_equal(traced.x, plain.x)
        names = {rec.name for rec in solver.tracer.spans}
        assert {"restart", "arnoldi", "spmv", "orthogonalize", "basis_read",
                "basis_write", "update"} <= names
