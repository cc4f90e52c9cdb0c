"""Worker-side job execution: one solve per task, fresh state per job.

This module is the code that actually runs inside a
:class:`repro.parallel.pool.SupervisedPool` worker process.  Its
contract with the engine:

* **Isolation, asserted.**  Every job builds its *own* problem, tracer,
  accessors and solver — nothing is reused across jobs.  A module-level
  sentinel (:data:`_ACTIVE_JOB`) makes the claim checkable: if a
  previous job's cleanup ever leaked (its ``finally`` skipped, its
  state left armed), the next job on that worker raises
  :class:`IsolationError` instead of silently computing on dirty state.
  The definitive check is external: the soak harness asserts non-faulted
  jobs' results are bit-identical to direct ``CbGmres.solve`` calls.
* **Progress = heartbeat.**  The injected ``emit`` callback publishes a
  per-restart progress event (iteration, implicit residual, phase
  seconds from the job's own :class:`repro.observe.Tracer`).  The
  engine treats the event stream as the liveness signal, so a worker
  that stops emitting is declared hung and killed; ``emit`` is also the
  cooperative-cancellation point (it raises
  :class:`repro.parallel.TaskCancelled` when the engine asked).
* **Chaos is opt-in and attempt-scoped.**  A job spec may carry a
  serialized :class:`repro.robust.chaos.ChaosSpec`; the worker arms it
  only for the attempt it targets, so a crash plan for attempt 1 lets
  the retry succeed.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import replace
from typing import Any, Callable, Dict, Iterator, Optional, Sequence

import numpy as np

from ..observe import Tracer
from ..robust.chaos import ChaosSpec, chaos_monitor
from ..robust.faults import FaultInjector, fault_hooks
from ..solvers.problems import make_problem
from .jobs import JobSpec

__all__ = ["IsolationError", "run_solve_job", "run_solve_batch_job"]


class IsolationError(RuntimeError):
    """Cross-job state leakage detected inside a worker process."""


#: job currently executing in this worker process (isolation sentinel)
_ACTIVE_JOB: Optional[str] = None
#: jobs completed by this worker process (diagnostic; proves reuse)
_JOBS_RUN = 0

#: tracer phases snapshotted into progress events
_PROGRESS_PHASES = ("spmv", "orthogonalize", "basis_read", "basis_write")


def _make_rhs(problem, rhs_seed: Optional[int]) -> np.ndarray:
    if rhs_seed is None:
        return problem.b
    rng = np.random.default_rng(rhs_seed)
    x = rng.standard_normal(problem.a.shape[1])
    x /= np.linalg.norm(x)
    return problem.a.matvec(x)


@contextmanager
def _owning_worker(kind: str, tag: str) -> Iterator[None]:
    """Hold the isolation sentinel for one ``kind`` (job/batch) attempt."""
    global _ACTIVE_JOB
    if _ACTIVE_JOB is not None:
        raise IsolationError(
            f"worker started {kind} {tag} while job {_ACTIVE_JOB} "
            "still owns this process — per-job state leaked"
        )
    _ACTIVE_JOB = tag
    try:
        yield
    finally:
        _ACTIVE_JOB = None


def _prepare(spec: Dict[str, Any], storage: str, tracer, **hooks):
    """Problem and solver of one (lead) job spec, for this attempt's
    ``storage``; ``hooks`` are the chaos wrappers of
    :meth:`~repro.solvers.options.SolveOptions.build`."""
    job = JobSpec.from_dict(spec)
    problem = make_problem(job.matrix, job.scale, target_rrn=job.target_rrn)
    solver = replace(job.options, storage=storage).build(
        problem.a, tracer=tracer, **hooks
    )
    return problem, solver


class _Progress:
    """The per-step monitor: progress events for the engine's heartbeat.

    Called as ``monitor(col, iteration, j, basis, implicit_rrn)``;
    column ``col`` emits at its own spec's ``progress_every`` and
    ``job_ids`` (batched attempts only) tags each event with its
    member's id so the engine can route it.
    """

    def __init__(self, emit, tracer, storage, specs, job_ids=None) -> None:
        self.emit = emit
        self.tracer = tracer
        self.storage = storage
        self.every = [max(int(s.get("progress_every", 25)), 1) for s in specs]
        self.job_ids = job_ids
        self.emitted = 0

    def __call__(self, col, iteration, j, basis, implicit_rrn) -> None:
        if self.emit is None:
            return
        if iteration % self.every[col] != 0 and j != 0:
            return
        self.emitted += 1
        event = {
            "kind": "progress",
            "iteration": int(iteration),
            "restart_slot": int(j),
            "implicit_rrn": float(implicit_rrn),
            # the format the basis is *currently* stored in — under
            # adaptive precision this moves between restarts
            "basis_storage": getattr(basis, "storage", self.storage),
            "phase_seconds": {
                phase: self.tracer.total_seconds(phase)
                for phase in _PROGRESS_PHASES
            },
        }
        if self.job_ids is not None:
            event["job_id"] = self.job_ids[col]
        self.emit(event)


def _payload(job_id, attempt, result, storage, wall, progress, **extra):
    """The result payload of one job (solo-shaped for batch members)."""
    return {
        "job_id": job_id,
        "attempt": int(attempt),
        "x": result.x,
        "converged": bool(result.converged),
        "stalled": bool(result.stalled),
        "iterations": int(result.iterations),
        "final_rrn": float(result.final_rrn),
        "target_rrn": float(result.target_rrn),
        "storage_used": storage,
        "recoveries": int(result.recoveries),
        "breakdowns": len(result.breakdown_events),
        "wall_seconds": wall,
        "progress_events": int(progress.emitted),
        "worker_jobs_run": int(_JOBS_RUN),
        **extra,
        "counters": {
            str(k): (float(v) if isinstance(v, float) else int(v))
            for k, v in sorted(progress.tracer.counters.items())
        },
    }


def run_solve_job(
    spec: Dict[str, Any],
    job_id: str,
    attempt: int,
    storage: str,
    emit: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> Dict[str, Any]:
    """Run one solve attempt; returns the result payload.

    Parameters
    ----------
    spec : dict
        A serialized :class:`repro.serve.jobs.JobSpec`.
    job_id : str
        Engine-assigned identity (isolation sentinel + event tagging).
    attempt : int
        1-based attempt number (chaos arming, diagnostics).
    storage : str
        Storage format for *this* attempt — the engine may have degraded
        it below ``spec["storage"]`` along the fallback chain.
    emit : callable, optional
        Progress channel injected by the pool; ``None`` (direct calls
        in tests) disables event emission.
    """
    global _JOBS_RUN
    with _owning_worker("job", job_id):
        t0 = time.perf_counter()
        chaos = None
        if spec.get("chaos"):
            chaos = ChaosSpec.from_dict(spec["chaos"])
            if not chaos.armed(attempt):
                chaos = None

        tracer = Tracer()
        progress = _Progress(emit, tracer, storage, [spec])
        hooks = {}
        chaos_tick = None
        if chaos is not None:
            if chaos.is_process_kind:
                chaos_tick = chaos_monitor(chaos)
            else:
                hooks = fault_hooks(
                    chaos.kind, FaultInjector(chaos.rate, chaos.seed)
                )

        def monitor(*step) -> None:
            if chaos_tick is not None:
                chaos_tick(*step)
            progress(0, *step)

        problem, solver = _prepare(spec, storage, tracer, **hooks)
        b = _make_rhs(problem, spec.get("rhs_seed"))
        result = solver.solve(
            b, problem.target_rrn, record_history=False, monitor=monitor
        )

        _JOBS_RUN += 1
        return _payload(
            job_id, attempt, result, storage,
            float(time.perf_counter() - t0), progress,
        )


def run_solve_batch_job(
    specs: Sequence[Dict[str, Any]],
    job_ids: Sequence[str],
    attempt: int,
    storage: str,
    emit: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> Dict[str, Any]:
    """Run one *batched* solve attempt over jobs sharing a matrix key.

    The engine coalesces queued jobs whose specs differ only in
    ``rhs_seed`` (same matrix, scale, solver configuration) into a
    single worker task: the problem is built **once**, every job
    contributes one right-hand-side column, and the whole block runs
    through :meth:`~repro.solvers.gmres.CbGmres.solve_batch` — so the
    matrix structure, FRSZ2 codec passes and tile sweeps are paid once
    per batch instead of once per job.  Each job's numbers stay
    bit-identical to what its own solo :func:`run_solve_job` attempt
    would have produced (the ``solve_batch`` contract).

    Parameters
    ----------
    specs : sequence of dict
        Serialized :class:`repro.serve.jobs.JobSpec` per batch member;
        all members must agree on everything except ``rhs_seed`` and
        ``progress_every`` (the engine's batch key guarantees it).
        Chaos plans are never batched.
    job_ids : sequence of str
        Engine identities aligned with ``specs``; progress events carry
        the member's ``job_id`` so the engine can route them.
    attempt : int
        1-based attempt number (batched attempts are always first
        attempts — retries run solo).
    storage : str
        Storage format shared by the whole batch.
    emit : callable, optional
        Progress channel injected by the pool.

    Returns
    -------
    dict
        ``{"results": {job_id: payload}}`` with one solo-shaped result
        payload per member, plus batch-level bookkeeping.
    """
    global _JOBS_RUN
    specs = list(specs)
    job_ids = list(job_ids)
    if not specs or len(specs) != len(job_ids):
        raise ValueError("specs and job_ids must be equal-length and non-empty")
    with _owning_worker("batch", "+".join(job_ids)):
        t0 = time.perf_counter()
        tracer = Tracer()
        progress = _Progress(emit, tracer, storage, specs, job_ids)
        # batch members share the whole solver and preconditioner config
        # (it is part of the engine's batch key), so one problem and one
        # factorization serve every column
        problem, solver = _prepare(specs[0], storage, tracer)
        columns = [_make_rhs(problem, spec.get("rhs_seed")) for spec in specs]
        batch = solver.solve_batch(
            np.stack(columns, axis=1), problem.target_rrn,
            record_history=False, monitor=progress,
        )

        _JOBS_RUN += 1
        # wall clock + tracer are per-batch, shared by members
        wall = float(time.perf_counter() - t0)
        return {
            "results": {
                job_id: _payload(
                    job_id, attempt, result, storage, wall, progress,
                    batch_columns=len(job_ids),
                )
                for job_id, result in zip(job_ids, batch.results)
            },
            "batch_columns": len(job_ids),
            "batched_spmv_calls": int(batch.batched_spmv_calls),
            "wall_seconds": wall,
        }


def _leak_state_for_tests(job_id: str) -> None:
    """Deliberately arm the isolation sentinel (tests only): the next
    job on this worker must fail with :class:`IsolationError`."""
    global _ACTIVE_JOB
    _ACTIVE_JOB = job_id
