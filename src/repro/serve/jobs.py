"""Job specs and the hardened job state machine.

A *job* is one solve request: a matrix reference (suite name + scale),
a right-hand side (the paper's deterministic RHS, or a seeded random
one), and a solver configuration.  The engine tracks each admitted job
through an explicit state machine whose transitions are **validated** —
an illegal transition is a bug in the engine, not a condition to paper
over, so :meth:`JobRecord.transition` raises on one.

::

    QUEUED ──────────► RUNNING ─────────► DONE
      │                  │ │ │
      │ cancel           │ │ └──────────► FAILED      (retries exhausted)
      ├────► CANCELLED ◄─┘ │
      │                    └────────────► TIMED_OUT   (deadline blown)
      │     RETRY_WAIT ◄── RUNNING           ▲
      │         │   (crash/hang/error,       │
      │         │    backoff + degrade)      │
      │         ├──► QUEUED  (backoff done)  │
      │         ├──► CANCELLED               │
      │         └────────────────────────────┘

Terminal states are exactly ``DONE`` / ``FAILED`` / ``CANCELLED`` /
``TIMED_OUT``: every admitted job reaches one of them — the invariant
the soak harness asserts.  Rejected submissions (backpressure, drain)
never become jobs at all; they are counted by the admission controller.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional

from ..robust.chaos import ChaosSpec
from ..solvers.options import SolveOptions, check_choice, from_fields
from ..sparse.suite import SCALES, SUITE

__all__ = [
    "JobState",
    "TERMINAL_STATES",
    "JobSpec",
    "AttemptRecord",
    "JobRecord",
    "IllegalTransition",
]


class JobState:
    """Job lifecycle states (plain strings for painless serialization)."""

    QUEUED = "queued"
    RUNNING = "running"
    RETRY_WAIT = "retry_wait"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    TIMED_OUT = "timed_out"

    ALL = (QUEUED, RUNNING, RETRY_WAIT, DONE, FAILED, CANCELLED, TIMED_OUT)


#: states no job ever leaves
TERMINAL_STATES = frozenset(
    (JobState.DONE, JobState.FAILED, JobState.CANCELLED, JobState.TIMED_OUT)
)

#: the validated transition relation of the state machine above
_ALLOWED = {
    JobState.QUEUED: frozenset(
        (JobState.RUNNING, JobState.CANCELLED, JobState.TIMED_OUT)
    ),
    JobState.RUNNING: frozenset(
        (
            JobState.DONE,
            JobState.FAILED,
            JobState.CANCELLED,
            JobState.TIMED_OUT,
            JobState.RETRY_WAIT,
        )
    ),
    JobState.RETRY_WAIT: frozenset(
        (JobState.QUEUED, JobState.CANCELLED, JobState.TIMED_OUT, JobState.FAILED)
    ),
    JobState.DONE: frozenset(),
    JobState.FAILED: frozenset(),
    JobState.CANCELLED: frozenset(),
    JobState.TIMED_OUT: frozenset(),
}


class IllegalTransition(RuntimeError):
    """The engine attempted a transition the state machine forbids."""


@dataclass(frozen=True)
class JobSpec:
    """One solve request.  Everything here must be picklable: the spec
    (as a dict) is what crosses the process boundary to a worker.

    Parameters
    ----------
    matrix, scale : str
        Suite matrix reference (``python -m repro list``) and problem
        scale.
    storage : str
        Requested Krylov-basis storage format.  On repeated attempt
        failures the engine may *degrade* it along
        :func:`repro.solvers.adaptive.escalation` (frsz2_16 → frsz2_32 →
        float64; ``adaptive`` → float64); the per-attempt storage is
        recorded in each :class:`AttemptRecord`.
    m, max_iter : int
        Restart length and iteration cap.
    target_rrn : float, optional
        Override the matrix's calibrated convergence target.
    rhs_seed : int, optional
        ``None`` uses the paper's deterministic RHS; an integer builds a
        seeded random unit-norm RHS instead (``b = A x_rand``).
    spmv_format, basis_mode, backend, preconditioner, prec_storage : str
        With ``storage``, ``m`` and ``max_iter`` the eight fields of
        :class:`~repro.solvers.options.SolveOptions` (:attr:`options`),
        checked on construction; the worker builds its solver from them
        (the preconditioner from the raw operator).  All are part of the
        batch-coalescing key.
    deadline_s : float, optional
        Whole-job wall deadline, counted from the job's *first* dispatch
        to a worker (queue wait does not consume it); spans retries and
        backoff waits.  ``None`` falls back to the engine default.
    max_retries : int, optional
        Per-job override of the engine's retry budget.
    progress_every : int
        Emit a progress event every this-many solver iterations (plus
        always at iteration 0).  Progress events double as heartbeats.
    chaos : dict, optional
        A serialized :class:`repro.robust.chaos.ChaosSpec` the worker
        arms for the matching attempt (fault-injection campaigns and
        the soak harness; production jobs leave it ``None``).
    """

    matrix: str
    storage: str = "frsz2_32"
    scale: str = "smoke"
    m: int = 30
    max_iter: int = 400
    target_rrn: Optional[float] = None
    rhs_seed: Optional[int] = None
    spmv_format: str = "csr"
    basis_mode: str = "cached"
    backend: str = "numpy"
    preconditioner: str = "none"
    prec_storage: str = "float64"
    deadline_s: Optional[float] = None
    max_retries: Optional[int] = None
    progress_every: int = 25
    chaos: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        # a malformed job is refused here, by name, before admission:
        # retry and storage degradation are for attempts that ran
        self.options
        check_choice("matrix", self.matrix, SUITE)
        check_choice("scale", self.scale, SCALES)
        if self.chaos:
            ChaosSpec.from_dict(self.chaos)

    @property
    def options(self) -> SolveOptions:
        """The solve this job describes (validated on construction)."""
        return SolveOptions(
            **{f.name: getattr(self, f.name) for f in fields(SolveOptions)}
        )

    def to_dict(self) -> Dict[str, Any]:
        """The flat wire format: what crosses the pipe to a worker, and
        (minus two keys) the engine's batch-coalescing key."""
        data = dict(vars(self))  # the fields, in declaration order
        data["chaos"] = dict(self.chaos) if self.chaos else None
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobSpec":
        return from_fields(cls, data)


@dataclass
class AttemptRecord:
    """One dispatch of a job to a worker."""

    index: int  # 1-based
    storage: str
    started_at: float
    ended_at: Optional[float] = None
    #: how the attempt ended: done/error/crashed/hung/cancelled/timed_out
    outcome: Optional[str] = None
    error: Optional[str] = None


@dataclass
class JobRecord:
    """Engine-side record of one admitted job.

    Thread-safety: all mutation happens on the engine's supervisor
    thread; readers on other threads see consistent snapshots because
    state changes are single attribute writes and ``finished`` is a
    :class:`threading.Event`.
    """

    job_id: str
    spec: JobSpec
    state: str = JobState.QUEUED
    submitted_at: float = field(default_factory=time.monotonic)
    #: first dispatch (starts the deadline clock + ends the queue wait)
    first_started_at: Optional[float] = None
    finished_at: Optional[float] = None
    attempts: List[AttemptRecord] = field(default_factory=list)
    #: worker result payload of the successful attempt (``None`` until
    #: DONE): x, converged, iterations, final_rrn, storage_used, ...
    result: Optional[Dict[str, Any]] = None
    #: human-readable reason for FAILED / CANCELLED / TIMED_OUT
    reason: Optional[str] = None
    #: times this job was retried (attempts - 1, counted explicitly)
    retries: int = 0
    #: times a retry moved the attempt's storage up the escalation
    degradations: int = 0
    cancel_requested: bool = False
    finished: threading.Event = field(default_factory=threading.Event)
    #: monotonic timestamp to leave RETRY_WAIT (engine-managed)
    retry_at: Optional[float] = None
    #: last heartbeat/progress observation while RUNNING
    last_event_at: Optional[float] = None
    #: cancel grace bookkeeping
    cancel_requested_at: Optional[float] = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def queue_wait_s(self) -> Optional[float]:
        """Seconds from admission to first dispatch (``None`` if the
        job never started)."""
        if self.first_started_at is None:
            return None
        return self.first_started_at - self.submitted_at

    @property
    def current_storage(self) -> str:
        """Storage of the latest attempt (the degraded one, if any)."""
        if self.attempts:
            return self.attempts[-1].storage
        return self.spec.storage

    def transition(self, new_state: str, reason: Optional[str] = None) -> None:
        """Move to ``new_state``; raises :class:`IllegalTransition` if
        the state machine forbids it."""
        if new_state not in _ALLOWED[self.state]:
            raise IllegalTransition(
                f"job {self.job_id}: illegal transition "
                f"{self.state} -> {new_state}"
            )
        self.state = new_state
        if reason is not None:
            self.reason = reason
        if new_state in TERMINAL_STATES:
            self.finished_at = time.monotonic()
            self.finished.set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job is terminal; True if it finished."""
        return self.finished.wait(timeout)

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-friendly view (numpy payloads summarized, not dumped)."""
        result = None
        if self.result is not None:
            result = {
                k: v for k, v in self.result.items() if k not in ("x",)
            }
        return {
            "job_id": self.job_id,
            "state": self.state,
            "matrix": self.spec.matrix,
            "storage": self.spec.storage,
            "storage_used": self.current_storage,
            "attempts": len(self.attempts),
            "retries": self.retries,
            "degradations": self.degradations,
            "queue_wait_s": self.queue_wait_s,
            "reason": self.reason,
            "result": result,
        }
