"""repro.serve — the solver-as-a-service job engine.

The service layer from the ROADMAP: an async job engine that accepts
solve requests (matrix reference + RHS + solver config), runs them on a
supervised worker pool, and streams per-restart progress events to
subscribers.  The lifecycle follows the WebCodecs encoder shape —
configure (:class:`ServeConfig`) → enqueue (:meth:`SolveEngine.submit`)
→ callback per output (:class:`ProgressBus`) → flush
(:meth:`SolveEngine.drain`) — with a hardened robustness contract:

* bounded admission queue with explicit reject-with-reason
  (:class:`QueueFullError` / :class:`DrainingError` /
  :class:`ClosedError`);
* per-job wall deadlines and heartbeat-based hang detection;
* bounded retry with exponential backoff + deterministic jitter on
  worker crashes, hangs, and solve errors;
* automatic precision degradation along the fallback chain
  (frsz2_16 → frsz2_32 → float64) on repeated failure;
* cooperative cancellation that always reclaims the worker;
* per-job state isolation, asserted in-worker and verified
  bit-for-bit by the soak harness (:func:`run_soak`).

See ``docs/ARCHITECTURE.md`` (serve section) for the state machine and
data flow, and ``docs/EXPERIMENTS.md`` for the soak guide.
"""

from .bus import ProgressBus, ProgressEvent
from .engine import ServeConfig, SolveEngine
from .health import (
    SERVE_HEALTH_SCHEMA,
    SERVE_HEALTH_VERSION,
    build_serve_health,
    validate_serve_health,
    write_serve_report,
)
from .jobs import (
    TERMINAL_STATES,
    AttemptRecord,
    IllegalTransition,
    JobRecord,
    JobSpec,
    JobState,
)
from .queue import (
    AdmissionController,
    ClosedError,
    DrainingError,
    QueueFullError,
    RejectedError,
)
from .soak import SoakError, build_soak_specs, run_soak
from .worker import IsolationError, run_coalesced_job, run_solve_job

__all__ = [
    "AdmissionController",
    "AttemptRecord",
    "ClosedError",
    "DrainingError",
    "IllegalTransition",
    "IsolationError",
    "JobRecord",
    "JobSpec",
    "JobState",
    "ProgressBus",
    "ProgressEvent",
    "QueueFullError",
    "RejectedError",
    "SERVE_HEALTH_SCHEMA",
    "SERVE_HEALTH_VERSION",
    "ServeConfig",
    "SoakError",
    "SolveEngine",
    "TERMINAL_STATES",
    "build_serve_health",
    "build_soak_specs",
    "run_coalesced_job",
    "run_solve_job",
    "run_soak",
    "validate_serve_health",
    "write_serve_report",
]
