"""The solve-service engine: supervised workers + hardened job lifecycle.

:class:`SolveEngine` is the ROADMAP's "solver-as-a-service" layer with
the robustness contract as the headline.  The shape follows the
WebCodecs encoder pattern (configure → enqueue → callback per output →
flush):

* **configure** — :class:`ServeConfig` fixes the worker count, queue
  bound, retry/backoff policy, deadlines and heartbeat windows;
* **enqueue** — :meth:`SolveEngine.submit` admits a
  :class:`~repro.serve.jobs.JobSpec` or rejects it *with a reason*
  (bounded queue: ``queue_full`` / ``draining`` / ``closed`` — the
  queue never grows without bound);
* **callback** — subscribers on the :class:`~repro.serve.bus.ProgressBus`
  receive per-restart progress events (residual + phase timings from
  the worker's own tracer), lifecycle transitions and terminal results;
* **flush** — :meth:`SolveEngine.drain` refuses new work, finishes every
  admitted job, flushes the progress streams, and shuts the pool down.

Hardening mechanisms, all engine-side (workers stay dumb):

* **deadlines** — a per-job wall budget counted from first dispatch;
  blown deadlines kill the worker (slot reclaimed) and end the job
  ``TIMED_OUT``;
* **hang detection** — progress events double as heartbeats; a running
  job whose worker goes silent past ``heartbeat_timeout_s`` is killed
  and treated as a crash (retryable);
* **bounded retry with backoff + jitter** — worker crashes, hangs and
  in-process solve errors are retried up to ``max_retries`` times with
  exponential backoff and deterministic, per-job seeded jitter;
* **precision degradation** — each retry takes the next storage of
  :func:`repro.solvers.adaptive.escalation`, the same rungs
  :class:`repro.robust.RobustCbGmres` walks (frsz2_16 → frsz2_32 →
  float64; an ``adaptive`` job, whose controller already climbs the
  rungs inside its solve, retries on float64): degraded-precision
  results beat no results, and float64 is the correctness-guaranteeing
  terminal;
* **cooperative cancellation** — :meth:`SolveEngine.cancel` asks the
  worker to stop at its next progress tick and force-kills after a
  grace window, so cancellation always reclaims the worker; a member
  of a coalesced attempt whose peers are still attached leaves at once
  instead ("cancelled; batch peers continue"), and only the last one
  left is cancelled cooperatively;
* **supervised pool** — a worker process that dies is respawned by
  :class:`repro.parallel.SupervisedPool`; the pool never shrinks.

Every dispatch is one attempt over a list of members
(:func:`repro.serve.worker.run_attempt`); a solo job is a list of one.
So there is one start path, one event route — progress is routed by the
``job_id`` each event carries, ``done`` reads the attempt's
``{"results": {job_id: payload}}`` — and one cancel rule.  Every payload
carries ``batch_columns`` and every ``attempt`` event ``batched_with``
(both 1 for a solo job); ``serve.batches_dispatched`` and
``serve.batched_jobs`` count only attempts of two or more members.

Threading model: one supervisor thread owns the pool and every state
transition; public methods only flip flags / append to the admission
queue under the engine lock, so there is exactly one writer to the
state machine and the bus.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional

import numpy as np

from ..observe import NULL_TRACER, ScopedTracer
from ..parallel.pool import PoolTask, SupervisedPool
from ..solvers.adaptive import escalation
from .bus import ProgressBus, ProgressEvent
from .jobs import AttemptRecord, JobRecord, JobSpec, JobState, TERMINAL_STATES
from .queue import AdmissionController, RejectedError
from .worker import run_attempt

__all__ = ["ServeConfig", "SolveEngine"]

#: attempt outcomes that consume a retry instead of ending the job
_RETRYABLE_OUTCOMES = ("crashed", "hung", "error")


@dataclass(frozen=True)
class ServeConfig:
    """Engine configuration (the WebCodecs "configure" step).

    Parameters
    ----------
    workers : int
        Supervised worker processes.
    max_queue : int
        Bound on admitted-but-not-running jobs; submissions beyond it
        are rejected with ``queue_full`` (explicit backpressure).
    max_retries : int
        Retry budget per job for crashes/hangs/solve errors.
    backoff_base_s, backoff_cap_s : float
        Retry n waits ``base * 2**(n-1) + jitter`` seconds, jittered
        uniformly in ``[0, base)`` from a per-job seeded stream, capped
        at ``backoff_cap_s``.
    heartbeat_timeout_s : float
        A running job silent for this long is declared hung and killed.
        Must comfortably exceed the worker's inter-progress interval.
    default_deadline_s : float or None
        Whole-job wall deadline (from first dispatch) for specs that do
        not set their own; ``None`` = no deadline.
    cancel_grace_s : float
        After a cooperative cancel request, how long a worker may keep
        running before it is force-killed.
    seed : int
        Root seed of the backoff jitter streams (determinism).
    coalesce : bool
        Opt-in throughput mode: queued jobs whose specs differ only in
        ``rhs_seed`` (same matrix, scale, solver configuration) are
        dispatched as **one** attempt of several members,
        :func:`~repro.serve.worker.run_attempt`, that shares one problem
        build, one preconditioner factorization, one tracer and one pool
        round trip, then solves the members one after another with the
        same solver.  Per-job results stay bit-identical to one-member
        attempts.  Chaos jobs, deadline jobs and retry attempts never
        coalesce.
    max_batch : int
        Largest coalesced batch (right-hand sides per task).
    """

    workers: int = 2
    max_queue: int = 64
    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    heartbeat_timeout_s: float = 10.0
    default_deadline_s: Optional[float] = None
    cancel_grace_s: float = 0.5
    seed: int = 0
    coalesce: bool = False
    max_batch: int = 8

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff times must be non-negative")
        if self.heartbeat_timeout_s <= 0:
            raise ValueError("heartbeat_timeout_s must be positive")
        if self.cancel_grace_s < 0:
            raise ValueError("cancel_grace_s must be non-negative")


class SolveEngine:
    """Accepts solve jobs, runs them on a supervised pool, streams
    progress, and guarantees every admitted job reaches a terminal
    state.  See the module docstring for the full contract."""

    def __init__(self, config: Optional[ServeConfig] = None, tracer=None) -> None:
        self.config = config or ServeConfig()
        self.tracer = tracer or NULL_TRACER
        self._scope = ScopedTracer(self.tracer, "serve")
        self.bus = ProgressBus()
        self.admission = AdmissionController(self.config.max_queue)
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._jobs: Dict[str, JobRecord] = {}
        self._ready: Deque[JobRecord] = deque()
        #: task id -> the attempt's attached members (one for a solo job);
        #: a member is detached before it turns terminal
        self._by_task: Dict[int, List[JobRecord]] = {}
        self._task_of: Dict[str, PoolTask] = {}
        self._ids = itertools.count(1)
        self._draining = False
        self._closed = False
        self._stop = False
        # health tallies (supervisor-thread writes only)
        self.crashes_observed = 0
        self.hangs_detected = 0
        self.timeouts_enforced = 0
        self._pool = SupervisedPool(self.config.workers)
        self._thread = threading.Thread(
            target=self._supervise, name="repro-serve-supervisor", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # public API (any thread)
    # ------------------------------------------------------------------

    def submit(self, spec: JobSpec) -> JobRecord:
        """Admit a job or raise a :class:`~repro.serve.queue.RejectedError`.

        Raises
        ------
        QueueFullError, DrainingError, ClosedError
            Backpressure / lifecycle rejections, each carrying a
            machine-readable ``reason``.
        """
        if not isinstance(spec, JobSpec):
            raise TypeError(f"expected a JobSpec, got {type(spec).__name__}")
        with self._lock:
            queued_now = sum(
                1 for j in self._jobs.values()
                if j.state in (JobState.QUEUED, JobState.RETRY_WAIT)
            )
            try:
                self.admission.admit(queued_now, self._draining, self._closed)
            except RejectedError as exc:
                self._scope.count(f"rejected.{exc.reason}")
                raise
            job = JobRecord(job_id=f"job-{next(self._ids):05d}", spec=spec)
            self._jobs[job.job_id] = job
            self._ready.append(job)
            self._scope.count("accepted")
            self.bus.publish(job.job_id, "state", {"state": JobState.QUEUED})
            self._cond.notify_all()
        return job

    def cancel(self, job_id: str) -> bool:
        """Request cancellation; True if the job can still be cancelled.

        Queued and backoff-waiting jobs cancel immediately.  A running
        job with attached batch peers leaves its attempt at once; the
        last member of an attempt is asked cooperatively and
        force-killed after the grace window.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.terminal:
                return False
            if job.state in (JobState.QUEUED, JobState.RETRY_WAIT):
                if job in self._ready:
                    self._ready.remove(job)
                self._finish(job, JobState.CANCELLED, "cancelled before start")
                return True
            job.cancel_requested = True
            self._cond.notify_all()
            return True

    def subscribe(
        self,
        callback: Callable[[ProgressEvent], None],
        job_id: Optional[str] = None,
    ) -> int:
        with self._lock:
            return self.bus.subscribe(callback, job_id)

    def unsubscribe(self, token: int) -> bool:
        with self._lock:
            return self.bus.unsubscribe(token)

    def job(self, job_id: str) -> JobRecord:
        with self._lock:
            return self._jobs[job_id]

    def jobs(self) -> List[JobRecord]:
        with self._lock:
            return list(self._jobs.values())

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Refuse new work, finish every admitted job, flush streams,
        stop the pool (the WebCodecs "flush").

        Returns True when everything terminated within ``timeout``
        (``None`` = wait indefinitely); on False the engine keeps
        draining — call again, or :meth:`close` with ``force=True``.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            self._draining = True
            while any(not j.terminal for j in self._jobs.values()):
                wait_s = 0.1
                if deadline is not None:
                    wait_s = min(wait_s, deadline - time.monotonic())
                    if wait_s <= 0:
                        return False
                self._cond.wait(wait_s)
        self.close(force=False)
        return True

    def close(self, force: bool = True) -> None:
        """Stop the engine.  ``force=True`` cancels queued jobs and
        kills running ones (state CANCELLED, reason "engine closed");
        ``force=False`` assumes drain already emptied the engine.
        Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._draining = True
            self._stop = True
            self._cond.notify_all()
        self._thread.join(timeout=30.0)
        # single-threaded from here: the supervisor is gone
        with self._lock:
            for job in self._jobs.values():
                if job.terminal:
                    continue
                if not force:
                    # drain() promised emptiness; a live job here is a bug
                    raise RuntimeError(
                        f"close(force=False) with live job {job.job_id} "
                        f"in state {job.state}"
                    )
                task = self._task_of.pop(job.job_id, None)
                if task is not None and not task.terminal:
                    self._pool.kill(task)
                if job in self._ready:
                    self._ready.remove(job)
                self._finish(job, JobState.CANCELLED, "engine closed")
            self._ready.clear()
            self.bus.flush(sorted(self._jobs))
            self._pool.shutdown()
            self._cond.notify_all()

    def __enter__(self) -> "SolveEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close(force=True)

    # ------------------------------------------------------------------
    # supervisor thread: the only writer to pool + state machine
    # ------------------------------------------------------------------

    def _supervise(self) -> None:
        while True:
            with self._lock:
                if self._stop:
                    return
                self._dispatch_locked()
                wait_s = self._next_wait_locked()
            events = self._pool.poll(timeout=wait_s)
            with self._lock:
                if self._stop:
                    return
                for event in events:
                    self._handle_pool_event(event)
                self._enforce_timers_locked()
                self._cond.notify_all()

    def _dispatch_locked(self) -> None:
        # cap by our own in-flight count, not pool.idle_workers: the pool
        # assigns queued tasks lazily, so idle_workers would let the whole
        # backlog flood in and sit pending with the heartbeat clock running
        while self._ready and len(self._by_task) < self.config.workers:
            job = self._ready.popleft()
            if job.terminal:
                continue
            self._start_attempt(self._gather_batch_locked(job))

    def _batchable(self, job: JobRecord) -> bool:
        """Only pristine jobs coalesce: first attempt, no chaos plan, no
        deadline (a shared task cannot honor one member's wall budget),
        and no pending cancel."""
        return (
            not job.attempts
            and job.spec.chaos is None
            and self._deadline_of(job) is None
            and not job.cancel_requested
        )

    def _batch_key(self, job: JobRecord):
        key = job.spec.to_dict()
        key.pop("rhs_seed")        # the one thing members may vary
        key.pop("progress_every")  # per member in the coalesced worker
        return tuple(sorted(key.items()))

    def _gather_batch_locked(self, job: JobRecord) -> List[JobRecord]:
        batch = [job]
        if not self.config.coalesce or not self._batchable(job):
            return batch
        key = self._batch_key(job)
        for peer in list(self._ready):
            if len(batch) >= self.config.max_batch:
                break
            if peer.terminal or not self._batchable(peer):
                continue
            if self._batch_key(peer) == key:
                self._ready.remove(peer)
                batch.append(peer)
        return batch

    def _start_attempt(self, members: List[JobRecord]) -> None:
        """Dispatch one attempt over ``members`` (a solo job is one).
        Several members are always first attempts (see
        :meth:`_batchable`), so only a lead job's retry degrades."""
        lead = members[0]
        attempt_index = len(lead.attempts) + 1
        rungs = escalation(lead.spec.storage)
        storage = rungs[min(attempt_index - 1, len(rungs) - 1)]
        last = lead.attempts[-1] if lead.attempts else None
        if last is not None and storage != last.storage:
            lead.degradations += 1
            self._scope.scope(f"job.{lead.job_id}").count("degradations")
        peers = f"+{len(members) - 1}" if len(members) > 1 else ""
        task = self._pool.submit(
            run_attempt,
            dict(
                specs=[j.spec.to_dict() for j in members],
                job_ids=[j.job_id for j in members],
                attempt=attempt_index,
                storage=storage,
            ),
            label=f"{lead.job_id}{peers}[attempt {attempt_index}]",
            emit_kwarg="emit",
        )
        now = time.monotonic()
        for job in members:
            job.attempts.append(
                AttemptRecord(index=attempt_index, storage=storage, started_at=now)
            )
            if job.first_started_at is None:
                job.first_started_at = now
                self.admission.record_queue_wait(now - job.submitted_at)
            job.last_event_at = now
            job.transition(JobState.RUNNING)
            self._task_of[job.job_id] = task
            self._scope.scope(f"job.{job.job_id}").count("attempts")
            self.bus.publish(job.job_id, "attempt", {
                "attempt": attempt_index, "storage": storage,
                "batched_with": len(members),
            })
            self.bus.publish(job.job_id, "state", {"state": JobState.RUNNING})
        self._by_task[task.id] = list(members)
        if len(members) > 1:
            self._scope.count("batches_dispatched")
            self._scope.count("batched_jobs", len(members))

    def _next_wait_locked(self) -> float:
        wait_s = 0.05
        now = time.monotonic()
        for job in self._jobs.values():
            if job.terminal:
                continue
            deadline = self._deadline_of(job)
            if deadline is not None and job.first_started_at is not None:
                wait_s = min(wait_s, job.first_started_at + deadline - now)
            if job.state == JobState.RUNNING and job.last_event_at is not None:
                wait_s = min(
                    wait_s,
                    job.last_event_at + self.config.heartbeat_timeout_s - now,
                )
            if job.state == JobState.RETRY_WAIT and job.retry_at is not None:
                wait_s = min(wait_s, job.retry_at - now)
            if job.cancel_requested and job.cancel_requested_at is not None:
                wait_s = min(
                    wait_s,
                    job.cancel_requested_at + self.config.cancel_grace_s - now,
                )
        return max(wait_s, 0.005)

    def _deadline_of(self, job: JobRecord) -> Optional[float]:
        if job.spec.deadline_s is not None:
            return job.spec.deadline_s
        return self.config.default_deadline_s

    # -- pool events ----------------------------------------------------

    def _handle_pool_event(self, event) -> None:
        members = self._by_task.get(event.task.id)
        if members is None:
            return
        now = time.monotonic()
        if event.kind in ("started", "progress"):
            # any member's progress proves the shared worker is alive; the
            # event itself goes to the member whose job_id it carries
            tag = (event.payload or {}).get("job_id")
            for job in members:
                job.last_event_at = now
                if event.kind == "progress" and job.job_id == tag:
                    self._scope.scope(f"job.{job.job_id}").count("progress_events")
                    self.bus.publish(job.job_id, "progress", dict(event.payload))
            return
        # the task ended: every member still attached leaves with it
        for job in members:
            self._release_task(job)
        if event.kind == "crashed":
            self.crashes_observed += 1
            self._scope.count("worker_crashes")
        payloads = (event.task.result or {}).get("results", {})
        for job in members:
            if event.kind == "done" and job.job_id in payloads:
                job.attempts[-1].ended_at = now
                job.attempts[-1].outcome = "done"
                job.result = payloads[job.job_id]
                self._finish(job, JobState.DONE)
            elif event.kind == "done":
                self._attempt_failed(job, "error", "attempt result missing this job")
            elif event.kind == "cancelled":
                job.attempts[-1].ended_at = now
                job.attempts[-1].outcome = "cancelled"
                self._finish(job, JobState.CANCELLED, "cancelled cooperatively")
            elif event.kind == "error":
                self._attempt_failed(job, "error", repr(event.task.error))
            elif event.kind == "crashed":
                self._attempt_failed(
                    job, "crashed",
                    f"worker process died (exit code {event.task.exitcode})",
                )

    def _release_task(self, job: JobRecord) -> None:
        """Detach one job from its task; drops the task's member entry
        when the last member leaves."""
        task = self._task_of.pop(job.job_id, None)
        if task is not None:
            remaining = [j for j in self._by_task.get(task.id, ()) if j is not job]
            if remaining:
                self._by_task[task.id] = remaining
            else:
                self._by_task.pop(task.id, None)

    # -- failure/retry path ---------------------------------------------

    def _backoff_s(self, job: JobRecord, retry_index: int) -> float:
        base = self.config.backoff_base_s
        # deterministic jitter: a per-(engine seed, job, retry) stream
        job_seq = int(job.job_id.rsplit("-", 1)[-1])
        rng = np.random.default_rng((self.config.seed, job_seq, retry_index))
        jitter = float(rng.uniform(0.0, base)) if base > 0 else 0.0
        return min(base * (2 ** (retry_index - 1)) + jitter,
                   self.config.backoff_cap_s)

    def _attempt_failed(self, job: JobRecord, outcome: str, detail: str) -> None:
        attempt = job.attempts[-1]
        attempt.ended_at = time.monotonic()
        attempt.outcome = outcome
        attempt.error = detail
        self.bus.publish(job.job_id, "attempt", {
            "attempt": attempt.index, "storage": attempt.storage,
            "outcome": outcome, "error": detail,
        })
        if job.cancel_requested:
            self._finish(job, JobState.CANCELLED, "cancelled during retry")
            return
        budget = (
            job.spec.max_retries
            if job.spec.max_retries is not None
            else self.config.max_retries
        )
        if outcome in _RETRYABLE_OUTCOMES and job.retries < budget:
            job.retries += 1
            self._scope.count("retries")
            self._scope.scope(f"job.{job.job_id}").count("retries")
            delay = self._backoff_s(job, job.retries)
            job.retry_at = time.monotonic() + delay
            job.transition(JobState.RETRY_WAIT)
            self.bus.publish(job.job_id, "state", {
                "state": JobState.RETRY_WAIT, "retry_in_s": delay,
                "retry": job.retries,
            })
        else:
            self._finish(
                job, JobState.FAILED,
                f"attempt {attempt.index} {outcome}: {detail} "
                f"(retry budget {budget} exhausted)"
                if outcome in _RETRYABLE_OUTCOMES
                else f"attempt {attempt.index} {outcome}: {detail}",
            )

    def _finish(self, job: JobRecord, state: str, reason: Optional[str] = None) -> None:
        job.transition(state, reason)
        self._scope.count(f"jobs.{state}")
        self.bus.publish(job.job_id, "state", {
            "state": state, "reason": reason,
        })
        self.bus.publish(job.job_id, "result", job.snapshot())
        self._cond.notify_all()

    # -- timers ---------------------------------------------------------

    def _enforce_timers_locked(self) -> None:
        now = time.monotonic()
        for job in list(self._jobs.values()):
            if job.terminal:
                continue
            deadline = self._deadline_of(job)
            over_deadline = (
                deadline is not None
                and job.first_started_at is not None
                and now - job.first_started_at > deadline
            )
            if job.state == JobState.RUNNING:
                task = self._task_of.get(job.job_id)
                members = (
                    self._by_task.get(task.id, [job]) if task is not None else [job]
                )
                if over_deadline:
                    self.timeouts_enforced += 1
                    self._scope.count("deadline_kills")
                    if task is not None:
                        self._pool.kill(task)
                    self._release_task(job)
                    job.attempts[-1].ended_at = now
                    job.attempts[-1].outcome = "timed_out"
                    self._finish(
                        job, JobState.TIMED_OUT,
                        f"exceeded {deadline:g}s deadline",
                    )
                    continue
                if job.cancel_requested:
                    # one rule: while a peer is still attached the member
                    # leaves at once and the task computes on; the last
                    # member is cancelled cooperatively, then killed
                    if len(members) > 1:
                        self._release_task(job)
                        job.attempts[-1].ended_at = now
                        job.attempts[-1].outcome = "cancelled"
                        self._finish(
                            job, JobState.CANCELLED,
                            "cancelled; batch peers continue",
                        )
                    elif job.cancel_requested_at is None:
                        job.cancel_requested_at = now
                        if task is not None:
                            self._pool.request_cancel(task)
                    elif now - job.cancel_requested_at > self.config.cancel_grace_s:
                        if task is not None:
                            self._pool.kill(task)
                        self._release_task(job)
                        job.attempts[-1].ended_at = now
                        job.attempts[-1].outcome = "cancelled"
                        self._finish(
                            job, JobState.CANCELLED,
                            "cancel grace expired; worker killed",
                        )
                    continue
                if (
                    job.last_event_at is not None
                    and now - job.last_event_at > self.config.heartbeat_timeout_s
                ):
                    self.hangs_detected += 1
                    self._scope.count("hang_kills")
                    if task is not None:
                        self._pool.kill(task)
                    for peer in members:
                        self._release_task(peer)
                        self._attempt_failed(
                            peer, "hung",
                            f"no heartbeat for "
                            f"{self.config.heartbeat_timeout_s:g}s",
                        )
            elif job.state == JobState.RETRY_WAIT:
                if over_deadline:
                    self._finish(
                        job, JobState.TIMED_OUT,
                        f"exceeded {deadline:g}s deadline during backoff",
                    )
                elif job.retry_at is not None and now >= job.retry_at:
                    job.retry_at = None
                    job.transition(JobState.QUEUED)
                    self.bus.publish(job.job_id, "state",
                                     {"state": JobState.QUEUED, "requeue": True})
                    self._ready.append(job)
