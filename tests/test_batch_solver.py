"""Tests for solving a batch of right-hand sides with one solver.

A coalesced serve attempt (``repro.serve.worker.run_coalesced_job``)
builds one solver and loops ``CbGmres.solve`` over its members.  The
load-bearing property is that a solver keeps nothing from one solve to
the next: solve ``c`` of the loop must equal a fresh solver's
``solve(B[:, c])`` — solution bits, residual history, iteration counts,
work stats — for every storage format, SpMV format and batch size.
"""

import gc
import time

import numpy as np
import pytest

from repro.accessor import make_accessor
from repro.observe import Tracer
from repro.serve import JobSpec, run_coalesced_job, run_solve_job
from repro.solvers import CbGmres, make_problem

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


def solve_all(solver, B, target, x0=None):
    """The coalesced attempt's loop: every column through one solver."""
    targets = np.broadcast_to(target, B.shape[1])
    return [
        solver.solve(B[:, c], targets[c], x0=None if x0 is None else x0[:, c])
        for c in range(B.shape[1])
    ]


def assert_columns_identical(solo_results, batch_results):
    """Every batch column equals its independent solve, bit for bit."""
    assert len(solo_results) == len(batch_results)
    for c, (solo, col) in enumerate(zip(solo_results, batch_results)):
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
        # adaptive storage: each solve's own controller must have taken
        # the fresh solver's decisions (all empty for fixed storage)
        assert solo.stats.storage_trace == col.stats.storage_trace
        assert solo.precision_trace == col.precision_trace
        assert solo.stats.reads_by_storage == col.stats.reads_by_storage
        assert solo.stats.writes_by_storage == col.stats.writes_by_storage
        assert solo.stats.bits_per_value == col.stats.bits_per_value


class TestBitIdentity:
    """One solver looped over a batch == a fresh solver per column."""

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
        assert_columns_identical(solos, solve_all(solver(), B, target))

    @pytest.mark.parametrize(
        "storage", ["frsz2_16", "frsz2_32", "float64", "adaptive"]
    )
    def test_b1_is_the_plain_solver(self, storage):
        """A one-member coalesced attempt is the solo attempt, payload
        and all, not a near-clone."""
        spec = JobSpec(matrix="lung2", storage=storage, m=30, max_iter=400,
                       rhs_seed=3).to_dict()
        solo = run_solve_job(spec, "a", 1, storage)
        batch = run_coalesced_job([spec], ["a"], attempt=1, storage=storage)
        got = batch["results"]["a"]
        assert batch["batch_columns"] == 1
        assert np.array_equal(got["x"], solo["x"])
        for key in ("iterations", "final_rrn", "converged", "storage_used",
                    "progress_events"):
            assert got[key] == solo[key], key
        assert set(got) == set(solo) | {"batch_columns"}

    @pytest.mark.parametrize("basis_mode", ["cached", "streaming"])
    def test_adaptive_solves_of_one_solver_diverge(self, basis_mode):
        """Each solve carries its own controller: solves of one solver
        whose decisions differ run in different formats, each as a
        fresh solver would."""
        problem = make_problem("atmosmodd", "smoke")
        B = rhs_block(problem, 4)
        target = problem.target_rrn

        def solver():
            return CbGmres(
                problem.a, "adaptive", m=30, max_iter=600,
                basis_mode=basis_mode,
            )

        solos = [solver().solve(B[:, c], target) for c in range(4)]
        batch = solve_all(solver(), B, target)
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
        assert_columns_identical(solos, solve_all(solver(), B, target))

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("basis_mode", ["cached", "streaming"])
    @pytest.mark.parametrize("storage", ["frsz2_32", "float64"])
    def test_columns_match_solo_on_each_backend(self, storage, basis_mode, backend):
        """A reused solver's kept tile tables and SpMV scratch carry
        nothing into the next solve on the compiled kernels either — and
        the compiled column is the numpy column."""
        problem = make_problem("lung2", "smoke")
        B = rhs_block(problem, 3)
        target = problem.target_rrn

        def solver(b=backend):
            return CbGmres(
                problem.a, storage, m=30, max_iter=400,
                basis_mode=basis_mode, backend=b,
            )

        solos = [solver().solve(B[:, c], target) for c in range(3)]
        batch = solve_all(solver(), B, target)
        assert_columns_identical(solos, batch)
        assert_columns_identical(solve_all(solver("numpy"), B, target), batch)

    def test_per_column_targets_and_early_exit(self):
        """Each column stops at its own target."""
        problem = make_problem("lung2", "smoke")
        B = rhs_block(problem, 4)
        targets = [1e-2, 1e-6, 1e-9, 1e-4]

        def solver():
            return CbGmres(problem.a, "frsz2_32", m=30, max_iter=400)

        solos = [
            solver().solve(B[:, c], targets[c]) for c in range(4)
        ]
        batch = solve_all(solver(), B, targets)
        assert_columns_identical(solos, batch)
        # looser targets must finish in fewer iterations
        its = [r.iterations for r in batch]
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
        batch = solve_all(solver(), B, problem.target_rrn, x0=X0)
        assert_columns_identical(solos, batch)


class TestOneCore:
    """``solve`` is the one restart cycle: what the solver is configured
    with, and what it reports, cannot depend on what it solved before."""

    @pytest.mark.parametrize("storage", ["frsz2_32", "adaptive"])
    def test_storage_factory_reaches_batched_solves(self, storage):
        """Regression: the batch path once built its bases without
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
        batch = solve_all(solver(), B, problem.target_rrn)
        assert len(built) == solo_builds
        assert_columns_identical(solos, batch)

    def test_a_solve_leaves_no_reference_cycles(self):
        """A solve holds its bases (its big allocation): they must die by
        refcount when the call returns, not wait for the cycle collector
        — serve workers run job after job and their peak RSS is a gated
        benchmark metric."""
        problem = make_problem("cfd2", "smoke")
        B = rhs_block(problem, 3)
        gc.collect()
        gc.disable()
        try:
            CbGmres(problem.a, "frsz2_32", m=30).solve(B[:, 0], problem.target_rrn)
            solve_all(CbGmres(problem.a, "adaptive", m=30), B, problem.target_rrn)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def _traced(self, nrhs):
        problem = make_problem("atmosmodd", "smoke")
        B = rhs_block(problem, nrhs)
        tracer = Tracer()
        solver = CbGmres(problem.a, "frsz2_32", m=30, max_iter=600, tracer=tracer)
        t0 = time.perf_counter()
        results = solve_all(solver, B, problem.target_rrn)
        return tracer, time.perf_counter() - t0, results

    def test_span_names_do_not_depend_on_the_width(self):
        """A coalesced attempt of one or four solves names the same spans
        as a single solve."""
        names = [
            {rec.name for rec in self._traced(nrhs)[0].spans} for nrhs in (1, 4)
        ]
        assert names[0] == names[1]
        assert {"restart", "arnoldi", "spmv", "orthogonalize", "basis_read",
                "basis_write", "update"} <= names[0]

    def test_restart_span_opens_once_per_lockstep_pass(self):
        """One top-level ``restart`` span per pass of each solve's cycle
        (the last one finds the target met), indexed from 0 per solve
        when a coalesced attempt shares one tracer."""
        tracer, _, results = self._traced(4)
        restarts = [rec for rec in tracer.spans if rec.name == "restart"]
        expected = [
            i for result in results for i in range(result.stats.restarts + 1)
        ]
        assert [rec.attrs["index"] for rec in restarts] == expected
        assert all(rec.depth == 0 for rec in restarts)

    def test_named_phases_cover_a_batched_solve(self):
        """A coalesced attempt shares one tracer across its solves."""
        phases = {"spmv", "prec.apply", "orthogonalize", "basis_read",
                  "basis_write", "update", "restart", "arnoldi"}
        best = 0.0
        for _ in range(3):  # wall-clock share: best of three
            tracer, wall, _ = self._traced(4)
            named = sum(
                rec.exclusive_seconds for rec in tracer.spans
                if rec.name in phases
            )
            best = max(best, named / wall)
        assert best >= 0.95


class TestResultContainer:
    def test_zero_rhs_column_short_circuits(self):
        problem = make_problem("lung2", "smoke")
        B = rhs_block(problem, 2)
        B[:, 1] = 0.0
        batch = solve_all(
            CbGmres(problem.a, "frsz2_32", m=30, max_iter=400), B,
            problem.target_rrn,
        )
        assert batch[1].converged
        assert batch[1].iterations == 0
        assert np.array_equal(batch[1].x, np.zeros(problem.a.shape[0]))
        assert batch[0].converged  # the other column still solved


class TestInputValidation:
    def test_wrong_rhs_shape(self):
        problem = make_problem("lung2", "smoke")
        solver = CbGmres(problem.a, "float64", m=30, max_iter=400)
        with pytest.raises(ValueError, match="b must have shape"):
            solver.solve(np.zeros(3), 1e-6)
        with pytest.raises(ValueError, match="b must have shape"):
            solver.solve(rhs_block(problem, 2), 1e-6)

    def test_negative_target(self):
        problem = make_problem("lung2", "smoke")
        solver = CbGmres(problem.a, "float64", m=30, max_iter=400)
        with pytest.raises(ValueError, match="non-negative"):
            solver.solve(rhs_block(problem, 1)[:, 0], -1.0)

    def test_x0_shape_mismatch(self):
        problem = make_problem("lung2", "smoke")
        solver = CbGmres(problem.a, "float64", m=30, max_iter=400)
        b = rhs_block(problem, 1)[:, 0]
        with pytest.raises(ValueError, match="x0 must have shape"):
            solver.solve(b, 1e-6, x0=np.zeros((problem.a.shape[0], 1)))
