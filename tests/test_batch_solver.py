"""Tests for the batched multi-RHS solve path (``CbGmres.solve_batch``).

The load-bearing property is bit-identity: column ``c`` of a batched
solve must equal an independent ``solve(B[:, c])`` — solution bits,
residual history, iteration counts — for every storage format, SpMV
format and batch width.  Everything else (counters, masking, input
validation) rides on top of that contract.
"""

import gc
import time

import numpy as np
import pytest

from repro.accessor import make_accessor
from repro.observe import Tracer
from repro.solvers import BatchGmresResult, CbGmres, make_problem

from .backends import BACKENDS


def rhs_block(problem, nrhs, seed_base=1000):
    """Deterministic (n, nrhs) RHS block with solvable columns."""
    columns = []
    for c in range(nrhs):
        rng = np.random.default_rng(seed_base + c)
        x = rng.standard_normal(problem.a.shape[1])
        x /= np.linalg.norm(x)
        columns.append(problem.a.matvec(x))
    return np.stack(columns, axis=1)


def assert_columns_identical(solo_results, batch_result):
    """Every batch column equals its independent solve, bit for bit."""
    assert len(solo_results) == len(batch_result)
    for c, (solo, col) in enumerate(zip(solo_results, batch_result)):
        assert np.array_equal(solo.x, col.x), f"column {c}: solution bits"
        assert solo.iterations == col.iterations, f"column {c}: iterations"
        assert solo.converged == col.converged, f"column {c}: converged"
        assert solo.final_rrn == col.final_rrn, f"column {c}: final_rrn"
        solo_hist = [(s.iteration, s.rrn, s.kind) for s in solo.history]
        col_hist = [(s.iteration, s.rrn, s.kind) for s in col.history]
        assert solo_hist == col_hist, f"column {c}: residual history"
        assert solo.stats.restarts == col.stats.restarts
        assert solo.stats.spmv_calls == col.stats.spmv_calls
        assert solo.stats.basis_writes == col.stats.basis_writes
        assert (
            solo.stats.reorthogonalizations == col.stats.reorthogonalizations
        )
        # adaptive storage: the column's own controller must have taken
        # the solo decisions (all empty for fixed-storage solves)
        assert solo.stats.storage_trace == col.stats.storage_trace
        assert solo.precision_trace == col.precision_trace
        assert solo.stats.reads_by_storage == col.stats.reads_by_storage
        assert solo.stats.writes_by_storage == col.stats.writes_by_storage
        assert solo.stats.bits_per_value == col.stats.bits_per_value


class TestBitIdentity:
    """Satellite 4: batched == loop column-for-column across the grid."""

    @pytest.mark.parametrize(
        "storage", ["frsz2_16", "frsz2_32", "float64", "adaptive"]
    )
    @pytest.mark.parametrize("spmv_format", ["csr", "ell", "sell"])
    @pytest.mark.parametrize("nrhs", [1, 2, 7])
    def test_matches_independent_solves(self, storage, spmv_format, nrhs):
        problem = make_problem("lung2", "smoke")
        B = rhs_block(problem, nrhs)
        target = problem.target_rrn

        def solver():
            return CbGmres(
                problem.a, storage, m=30, max_iter=400,
                spmv_format=spmv_format,
            )

        solos = [solver().solve(B[:, c], target) for c in range(nrhs)]
        batch = solver().solve_batch(B, target)
        assert_columns_identical(solos, batch)

    @pytest.mark.parametrize(
        "storage", ["frsz2_16", "frsz2_32", "float64", "adaptive"]
    )
    def test_b1_is_the_plain_solver(self, storage):
        """A width-1 batch must be today's solver, not a near-clone."""
        problem = make_problem("lung2", "smoke")
        b = rhs_block(problem, 1)[:, 0]
        solo = CbGmres(problem.a, storage, m=30, max_iter=400).solve(
            b, problem.target_rrn
        )
        batch = CbGmres(problem.a, storage, m=30, max_iter=400).solve_batch(
            b, problem.target_rrn
        )
        assert_columns_identical([solo], batch)

    @pytest.mark.parametrize("basis_mode", ["cached", "streaming"])
    def test_adaptive_columns_diverge_inside_the_lockstep(self, basis_mode):
        """Each column carries its own controller: columns whose
        decisions differ run side by side in different formats (the
        batched kernels fall back per column on codec mismatch)."""
        problem = make_problem("atmosmodd", "smoke")
        B = rhs_block(problem, 4)
        target = problem.target_rrn

        def solver():
            return CbGmres(
                problem.a, "adaptive", m=30, max_iter=600,
                basis_mode=basis_mode,
            )

        solos = [solver().solve(B[:, c], target) for c in range(4)]
        batch = solver().solve_batch(B, target)
        assert_columns_identical(solos, batch)
        traces = {tuple(r.stats.storage_trace) for r in batch}
        assert len(traces) > 1, "columns should have chosen different formats"
        assert any(len(r.stats.writes_by_storage) > 1 for r in batch)
        for r in batch:
            assert r.storage == "adaptive"
            assert sum(r.stats.writes_by_storage.values()) == r.stats.basis_writes
            assert sum(r.stats.reads_by_storage.values()) == r.stats.basis_reads

    def test_streaming_basis_mode(self):
        problem = make_problem("lung2", "smoke")
        B = rhs_block(problem, 3)
        target = problem.target_rrn

        def solver():
            return CbGmres(
                problem.a, "frsz2_32", m=30, max_iter=400,
                basis_mode="streaming",
            )

        solos = [solver().solve(B[:, c], target) for c in range(3)]
        batch = solver().solve_batch(B, target)
        assert_columns_identical(solos, batch)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("basis_mode", ["cached", "streaming"])
    @pytest.mark.parametrize("storage", ["frsz2_32", "float64"])
    def test_columns_match_solo_on_each_backend(self, storage, basis_mode, backend):
        """A batch column is a loop iteration of the solo fused kernel,
        so it is its solo solve's bits on the compiled reduction too —
        and the compiled column is the numpy column."""
        problem = make_problem("lung2", "smoke")
        B = rhs_block(problem, 3)
        target = problem.target_rrn

        def solver(b=backend):
            return CbGmres(
                problem.a, storage, m=30, max_iter=400,
                basis_mode=basis_mode, backend=b,
            )

        solos = [solver().solve(B[:, c], target) for c in range(3)]
        batch = solver().solve_batch(B, target)
        assert_columns_identical(solos, batch)
        assert_columns_identical(solver("numpy").solve_batch(B, target), batch)

    def test_mgs_falls_back_to_solo_kernels(self):
        problem = make_problem("lung2", "smoke")
        B = rhs_block(problem, 3)
        target = problem.target_rrn

        def solver():
            return CbGmres(
                problem.a, "frsz2_32", m=30, max_iter=400,
                orthogonalization="mgs",
            )

        solos = [solver().solve(B[:, c], target) for c in range(3)]
        batch = solver().solve_batch(B, target)
        assert_columns_identical(solos, batch)

    def test_per_column_targets_and_early_exit(self):
        """Columns leave the lockstep at their own convergence points."""
        problem = make_problem("lung2", "smoke")
        B = rhs_block(problem, 4)
        targets = [1e-2, 1e-6, 1e-9, 1e-4]

        def solver():
            return CbGmres(problem.a, "frsz2_32", m=30, max_iter=400)

        solos = [
            solver().solve(B[:, c], targets[c]) for c in range(4)
        ]
        batch = solver().solve_batch(B, targets)
        assert_columns_identical(solos, batch)
        # looser targets must finish in fewer iterations
        its = batch.iterations
        assert its[0] < its[1] < its[2]

    def test_x0_block(self):
        problem = make_problem("lung2", "smoke")
        B = rhs_block(problem, 2)
        rng = np.random.default_rng(7)
        X0 = rng.standard_normal(B.shape) * 0.01

        def solver():
            return CbGmres(problem.a, "frsz2_32", m=30, max_iter=400)

        solos = [
            solver().solve(B[:, c], problem.target_rrn, x0=X0[:, c])
            for c in range(2)
        ]
        batch = solver().solve_batch(B, problem.target_rrn, x0=X0)
        assert_columns_identical(solos, batch)


class TestBatchedFastPaths:
    def test_counters_report_shared_work(self):
        problem = make_problem("lung2", "smoke")
        B = rhs_block(problem, 4)
        batch = CbGmres(
            problem.a, "frsz2_32", m=30, max_iter=400
        ).solve_batch(B, problem.target_rrn)
        assert isinstance(batch, BatchGmresResult)
        assert batch.batched_spmv_calls > 0
        assert all(batch.converged)

    def test_b1_bypasses_batched_kernels(self):
        problem = make_problem("lung2", "smoke")
        B = rhs_block(problem, 1)
        batch = CbGmres(
            problem.a, "frsz2_32", m=30, max_iter=400
        ).solve_batch(B, problem.target_rrn)
        assert batch.batched_spmv_calls == 0

    def test_monitor_receives_column_index(self):
        problem = make_problem("lung2", "smoke")
        B = rhs_block(problem, 3)
        seen = []

        def monitor(col, iteration, j, basis, implicit_rrn):
            seen.append((col, iteration, j))
            assert np.isfinite(implicit_rrn) or implicit_rrn == np.inf

        batch = CbGmres(
            problem.a, "frsz2_32", m=30, max_iter=400
        ).solve_batch(B, problem.target_rrn, monitor=monitor)
        for c, result in enumerate(batch):
            calls = [t for t in seen if t[0] == c]
            assert len(calls) == result.iterations
            assert [t[1] for t in calls] == list(
                range(1, result.iterations + 1)
            )


class TestOneCore:
    """``solve`` and ``solve_batch`` are one restart cycle: what the
    solver is configured with, and what it reports, cannot depend on
    the entry point."""

    @pytest.mark.parametrize("storage", ["frsz2_32", "adaptive"])
    def test_storage_factory_reaches_batched_solves(self, storage):
        """Regression: ``solve_batch`` used to build its bases without
        ``storage_factory``, silently bypassing wrapped accessors."""
        problem = make_problem("lung2", "smoke")
        B = rhs_block(problem, 3)
        built = []

        def factory(fmt, n):
            built.append(fmt)
            return make_accessor(fmt, n)

        def solver():
            return CbGmres(
                problem.a, storage, m=20, max_iter=400, storage_factory=factory
            )

        solos = [solver().solve(B[:, c], problem.target_rrn) for c in range(3)]
        solo_builds = len(built)
        assert solo_builds >= 3 * 21  # m + 1 slots per solve
        built.clear()
        batch = solver().solve_batch(B, problem.target_rrn)
        assert len(built) == solo_builds
        assert_columns_identical(solos, batch)

    def test_a_solve_leaves_no_reference_cycles(self):
        """The driver holds every column's basis (the solve's big
        allocation): it must die by refcount when the call returns, not
        wait for the cycle collector — serve workers run job after job
        and their peak RSS is a gated benchmark metric."""
        problem = make_problem("cfd2", "smoke")
        B = rhs_block(problem, 3)
        gc.collect()
        gc.disable()
        try:
            CbGmres(problem.a, "frsz2_32", m=30).solve(B[:, 0], problem.target_rrn)
            CbGmres(problem.a, "adaptive", m=30).solve_batch(B, problem.target_rrn)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def _traced(self, nrhs, batched):
        problem = make_problem("atmosmodd", "smoke")
        B = rhs_block(problem, nrhs)
        tracer = Tracer()
        solver = CbGmres(problem.a, "frsz2_32", m=30, max_iter=600, tracer=tracer)
        t0 = time.perf_counter()
        if batched:
            solver.solve_batch(B, problem.target_rrn)
        else:
            solver.solve(B[:, 0], problem.target_rrn)
        return tracer, time.perf_counter() - t0

    def test_span_names_do_not_depend_on_the_width(self):
        names = [
            {rec.name for rec in self._traced(nrhs, batched)[0].spans}
            for nrhs, batched in ((1, False), (1, True), (4, True))
        ]
        assert names[0] == names[1] == names[2]
        assert {"restart", "arnoldi", "spmv", "orthogonalize", "basis_read",
                "basis_write", "update"} <= names[0]

    def test_restart_span_opens_once_per_lockstep_pass(self):
        tracer, _ = self._traced(4, True)
        restarts = [rec for rec in tracer.spans if rec.name == "restart"]
        assert [rec.attrs["index"] for rec in restarts] == list(range(len(restarts)))
        assert restarts[0].attrs["columns"] == 4
        assert all(rec.depth == 0 for rec in restarts)

    def test_named_phases_cover_a_batched_solve(self):
        phases = {"spmv", "prec.apply", "orthogonalize", "basis_read",
                  "basis_write", "update", "restart", "arnoldi"}
        best = 0.0
        for _ in range(3):  # wall-clock share: best of three
            tracer, wall = self._traced(4, True)
            named = sum(
                rec.exclusive_seconds for rec in tracer.spans
                if rec.name in phases
            )
            best = max(best, named / wall)
        assert best >= 0.95


class TestResultContainer:
    def test_sequence_protocol(self):
        problem = make_problem("lung2", "smoke")
        B = rhs_block(problem, 2)
        batch = CbGmres(
            problem.a, "float64", m=30, max_iter=400
        ).solve_batch(B, problem.target_rrn)
        assert len(batch) == 2
        assert batch[0] is batch.results[0]
        assert [r.converged for r in batch] == batch.converged
        assert [r.iterations for r in batch] == batch.iterations

    def test_empty_batch(self):
        problem = make_problem("lung2", "smoke")
        batch = CbGmres(
            problem.a, "float64", m=30, max_iter=400
        ).solve_batch([], problem.target_rrn)
        assert len(batch) == 0

    def test_zero_rhs_column_short_circuits(self):
        problem = make_problem("lung2", "smoke")
        B = rhs_block(problem, 2)
        B[:, 1] = 0.0
        batch = CbGmres(
            problem.a, "frsz2_32", m=30, max_iter=400
        ).solve_batch(B, problem.target_rrn)
        assert batch[1].converged
        assert batch[1].iterations == 0
        assert np.array_equal(batch[1].x, np.zeros(problem.a.shape[0]))
        assert batch[0].converged  # the other column still solved


class TestInputValidation:
    def test_wrong_rhs_shape(self):
        problem = make_problem("lung2", "smoke")
        solver = CbGmres(problem.a, "float64", m=30, max_iter=400)
        with pytest.raises(ValueError):
            solver.solve_batch(np.zeros((3, 2)), 1e-6)
        with pytest.raises(ValueError):
            solver.solve_batch([np.zeros(3)], 1e-6)

    def test_target_count_mismatch(self):
        problem = make_problem("lung2", "smoke")
        solver = CbGmres(problem.a, "float64", m=30, max_iter=400)
        B = rhs_block(problem, 2)
        with pytest.raises(ValueError):
            solver.solve_batch(B, [1e-6, 1e-6, 1e-6])

    def test_negative_target(self):
        problem = make_problem("lung2", "smoke")
        solver = CbGmres(problem.a, "float64", m=30, max_iter=400)
        with pytest.raises(ValueError):
            solver.solve_batch(rhs_block(problem, 2), -1.0)

    def test_x0_shape_mismatch(self):
        problem = make_problem("lung2", "smoke")
        solver = CbGmres(problem.a, "float64", m=30, max_iter=400)
        B = rhs_block(problem, 2)
        with pytest.raises(ValueError):
            solver.solve_batch(B, 1e-6, x0=np.zeros(problem.a.shape[0]))
