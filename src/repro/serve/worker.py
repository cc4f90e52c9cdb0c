"""Worker-side execution: one attempt per task, fresh state per attempt.

This module is the code that actually runs inside a
:class:`repro.parallel.pool.SupervisedPool` worker process.  Every task
is one :func:`run_attempt` over a list of members; a solo job is a list
of one.  Its contract with the engine:

* **Isolation, asserted.**  Every attempt builds its *own* problem,
  tracer, accessors and solver — nothing is reused across attempts.  A
  module-level sentinel (:data:`_ACTIVE_JOB`) makes the claim
  checkable: if a previous attempt's cleanup ever leaked (its
  ``finally`` skipped, its state left armed), the next attempt on that
  worker raises :class:`IsolationError` instead of silently computing
  on dirty state.  The definitive check is external: the soak harness
  asserts non-faulted jobs' results are bit-identical to direct
  ``SolveOptions.build(...).solve`` calls.
* **Progress = heartbeat.**  The injected ``emit`` callback publishes a
  per-restart progress event (iteration, implicit residual, phase
  seconds from the attempt's own :class:`repro.observe.Tracer`).  The
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
from functools import partial
from typing import Any, Callable, Dict, Iterator, Optional, Sequence

import numpy as np

from ..observe import Tracer
from ..robust.chaos import ChaosSpec, chaos_monitor
from ..robust.faults import FaultInjector, fault_hooks
from ..solvers.problems import make_problem
from .jobs import JobSpec

__all__ = ["IsolationError", "run_attempt"]


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
def _owning_worker(tag: str) -> Iterator[None]:
    """Hold the isolation sentinel for one attempt."""
    global _ACTIVE_JOB
    if _ACTIVE_JOB is not None:
        raise IsolationError(
            f"worker started attempt {tag} while job {_ACTIVE_JOB} "
            "still owns this process — per-job state leaked"
        )
    _ACTIVE_JOB = tag
    try:
        yield
    finally:
        _ACTIVE_JOB = None


def _arm_chaos(spec: Dict[str, Any], attempt: int):
    """The chaos plan of ``spec`` armed for ``attempt``: the solver hooks
    of a data-level plan, the monitor tick of a process-level one."""
    if not spec.get("chaos"):
        return {}, None
    chaos = ChaosSpec.from_dict(spec["chaos"])
    if not chaos.armed(attempt):
        return {}, None
    if chaos.is_process_kind:
        return {}, chaos_monitor(chaos)
    return fault_hooks(chaos.kind, FaultInjector(chaos.rate, chaos.seed)), None


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

    Called as ``monitor(col, iteration, j, basis, implicit_rrn)`` with
    the member index ``col`` bound in (``functools.partial``); member
    ``col`` emits at its own spec's ``progress_every``, tagged with its
    ``job_id`` so the engine can route it.  An armed process-level
    chaos ``tick`` runs first on every step.
    """

    def __init__(self, emit, tracer, storage, specs, job_ids, tick=None) -> None:
        self.emit = emit
        self.tracer = tracer
        self.storage = storage
        self.every = [max(int(s.get("progress_every", 25)), 1) for s in specs]
        self.job_ids = job_ids
        self.tick = tick
        self.emitted = 0

    def __call__(self, col, iteration, j, basis, implicit_rrn) -> None:
        if self.tick is not None:
            self.tick(iteration, j, basis, implicit_rrn)
        if self.emit is None:
            return
        if iteration % self.every[col] != 0 and j != 0:
            return
        self.emitted += 1
        self.emit({
            "kind": "progress",
            "job_id": self.job_ids[col],
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
        })


def _payload(job_id, attempt, result, storage, wall, progress, columns):
    """The result payload of one member."""
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
        "batch_columns": columns,
        "counters": {
            str(k): (float(v) if isinstance(v, float) else int(v))
            for k, v in sorted(progress.tracer.counters.items())
        },
    }


def run_attempt(
    specs: Sequence[Dict[str, Any]],
    job_ids: Sequence[str],
    attempt: int,
    storage: str,
    emit: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> Dict[str, Any]:
    """Run one attempt over its members; a solo job is a list of one.

    The engine coalesces queued jobs whose specs differ only in
    ``rhs_seed`` (same matrix, scale, solver configuration) into one
    attempt.  The attempt shares one problem build, one preconditioner
    factorization, one tracer and one pool round trip; each member's
    right-hand side then runs through the solo
    :meth:`~repro.solvers.gmres.CbGmres.solve` of that one solver, in
    member order.  A solver keeps no state from one solve to the next,
    so each member's numbers are bit-identical to those of a one-member
    attempt of its own.

    Parameters
    ----------
    specs : sequence of dict
        Serialized :class:`repro.serve.jobs.JobSpec` per member; all
        members must agree on everything except ``rhs_seed`` and
        ``progress_every`` (the engine's batch key guarantees it).  Only
        a one-member attempt may carry a chaos plan; it is armed when
        it targets ``attempt``.
    job_ids : sequence of str
        Engine identities aligned with ``specs``: the isolation sentinel,
        and the ``job_id`` every progress event carries.
    attempt : int
        1-based attempt number (chaos arming, diagnostics).
    storage : str
        Storage format for *this* attempt, shared by every member — the
        engine may have degraded it from ``spec["storage"]`` along
        :func:`repro.solvers.adaptive.escalation`.
    emit : callable, optional
        Progress channel injected by the pool; ``None`` (direct calls
        in tests) disables event emission.

    Returns
    -------
    dict
        ``{"results": {job_id: payload}}`` with one result payload per
        member, plus the attempt's ``batch_columns`` and
        ``wall_seconds`` (each payload carries both as well).
    """
    global _JOBS_RUN
    specs = list(specs)
    job_ids = list(job_ids)
    if not specs or len(specs) != len(job_ids):
        raise ValueError("specs and job_ids must be equal-length and non-empty")
    if len(specs) > 1 and any(spec.get("chaos") for spec in specs):
        raise ValueError("a chaos plan runs only in a one-member attempt")
    with _owning_worker("+".join(job_ids)):
        t0 = time.perf_counter()
        tracer = Tracer()
        hooks, tick = _arm_chaos(specs[0], attempt)
        progress = _Progress(emit, tracer, storage, specs, job_ids, tick)
        # members share the whole solver and preconditioner config (it is
        # part of the engine's batch key), so one problem and one
        # factorization serve every member
        problem, solver = _prepare(specs[0], storage, tracer, **hooks)
        results = [
            solver.solve(
                _make_rhs(problem, spec.get("rhs_seed")), problem.target_rrn,
                record_history=False, monitor=partial(progress, col),
            )
            for col, spec in enumerate(specs)
        ]

        _JOBS_RUN += 1
        # wall clock + tracer are per-attempt, shared by members
        wall = float(time.perf_counter() - t0)
        return {
            "results": {
                job_id: _payload(
                    job_id, attempt, result, storage, wall, progress,
                    len(job_ids),
                )
                for job_id, result in zip(job_ids, results)
            },
            "batch_columns": len(job_ids),
            "wall_seconds": wall,
        }


def _leak_state_for_tests(job_id: str) -> None:
    """Deliberately arm the isolation sentinel (tests only): the next
    job on this worker must fail with :class:`IsolationError`."""
    global _ACTIVE_JOB
    _ACTIVE_JOB = job_id
