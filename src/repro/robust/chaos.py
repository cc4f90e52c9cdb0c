"""Chaos hooks: seeded failure plans for whole *processes*, not just bits.

:mod:`repro.robust.faults` injects data-level faults (bit flips, NaN
readouts, poisoned SpMV outputs) *inside* a solve.  A service dies in
coarser ways too: worker processes crash mid-solve, hang without
progress, or crawl past their deadlines.  A :class:`ChaosSpec` is a
declarative, seeded plan for exactly one such failure mode, serializable
(``to_dict``/``from_dict``) so the :mod:`repro.serve` job engine can
ship it to a worker process as part of a job spec and the soak harness
can replay a campaign bit-for-bit.

Process-level kinds (interpreted by :func:`chaos_monitor`):

* ``worker_crash`` — ``os._exit`` at a chosen iteration: the worker
  process dies without a traceback, exactly like a segfault or an OOM
  kill.  Exercises crash detection + retry with backoff.
* ``worker_hang``  — sleep (effectively) forever at a chosen iteration:
  no progress events, no return.  Exercises heartbeat hang detection.
* ``slowdown``     — ``delay_s`` of sleep per monitor tick from the
  chosen iteration on.  Exercises deadlines and cancellation grace.
* ``solve_error``  — raise :class:`ChaosError` at a chosen iteration.
  Exercises the job-level retry/degradation path for in-process errors.

Data-level kinds (every entry of
:data:`repro.robust.faults.FAULT_KINDS`) are delegated to the existing
seeded injectors via :func:`repro.robust.faults.fault_hooks`, so a chaos
plan can also subject a job to the classic bit-flip campaign conditions.

``only_attempt`` (default 1) arms the plan for a single job attempt:
a crash plan armed for attempt 1 kills the first try and lets the
retry succeed — the canonical "transient fault" the retry machinery
exists for.  ``None`` arms every attempt (a persistent fault).
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass
from typing import Callable, Optional

from ..solvers.options import check_choice, from_fields
from .faults import FAULT_KINDS

__all__ = [
    "CHAOS_KINDS",
    "PROCESS_CHAOS_KINDS",
    "ChaosError",
    "ChaosSpec",
    "chaos_monitor",
]

#: process-level chaos kinds (interpreted by :func:`chaos_monitor`)
PROCESS_CHAOS_KINDS = ("worker_crash", "worker_hang", "slowdown", "solve_error")

#: every chaos kind: process-level plus the data-level fault kinds
CHAOS_KINDS = PROCESS_CHAOS_KINDS + FAULT_KINDS

#: "forever" for ``worker_hang`` — long past any sane deadline, while
#: still unwinding cleanly if a test's cleanup outlives the supervisor
_HANG_SECONDS = 3600.0

#: exit code used by ``worker_crash`` (recognizable in pool exit codes)
CHAOS_EXIT_CODE = 101


class ChaosError(RuntimeError):
    """The planned in-process failure of a ``solve_error`` chaos plan."""


@dataclass(frozen=True)
class ChaosSpec:
    """A declarative, seeded plan for one failure mode.

    Parameters
    ----------
    kind : str
        One of :data:`CHAOS_KINDS`.
    at_iteration : int, default 5
        Trigger point for the process-level kinds, in solver iterations
        (monitor ticks).  Ignored by the data-level kinds, whose rate
        applies throughout.
    rate : float, default 0.02
        Per-operation fault probability for the data-level kinds.
    seed : int, default 0
        Seed for the data-level injectors (deterministic replay).
    delay_s : float, default 0.05
        Per-tick sleep of ``slowdown``.
    only_attempt : int or None, default 1
        Arm the plan only on this (1-based) job attempt; ``None`` arms
        every attempt.
    """

    kind: str
    at_iteration: int = 5
    rate: float = 0.02
    seed: int = 0
    delay_s: float = 0.05
    only_attempt: Optional[int] = 1

    def __post_init__(self) -> None:
        check_choice("chaos kind", self.kind, CHAOS_KINDS)
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"chaos rate must be in [0, 1], got {self.rate}")
        if self.at_iteration < 0:
            raise ValueError("at_iteration must be non-negative")
        if self.delay_s < 0:
            raise ValueError("delay_s must be non-negative")

    # -- arming ---------------------------------------------------------

    def armed(self, attempt: int) -> bool:
        """True when the plan applies to this (1-based) job attempt."""
        return self.only_attempt is None or attempt == self.only_attempt

    @property
    def is_process_kind(self) -> bool:
        return self.kind in PROCESS_CHAOS_KINDS

    # -- serialization (job specs cross process boundaries as dicts) ----

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ChaosSpec":
        return from_fields(cls, data)


def chaos_monitor(spec: ChaosSpec) -> Callable[..., None]:
    """A solver ``monitor`` callback executing a process-level plan.

    The returned callable matches
    :meth:`repro.solvers.gmres.CbGmres.solve`'s monitor signature
    ``(iteration, j, basis, implicit_rrn)`` and fires once the solve
    reaches ``spec.at_iteration``:

    * ``worker_crash`` exits the process immediately (no cleanup, no
      exception — indistinguishable from a hardware-level death);
    * ``worker_hang`` stops emitting progress and never returns;
    * ``slowdown`` sleeps ``delay_s`` on every subsequent tick;
    * ``solve_error`` raises :class:`ChaosError`.
    """
    if not spec.is_process_kind:
        raise ValueError(f"{spec.kind!r} is not a process-level chaos kind")

    def monitor(iteration: int, j: int, basis=None, implicit_rrn=None) -> None:
        if iteration < spec.at_iteration:
            return
        if spec.kind == "worker_crash":
            os._exit(CHAOS_EXIT_CODE)
        elif spec.kind == "worker_hang":
            time.sleep(_HANG_SECONDS)
        elif spec.kind == "slowdown":
            time.sleep(spec.delay_s)
        elif spec.kind == "solve_error":
            raise ChaosError(
                f"planned chaos failure at iteration {iteration}"
            )

    return monitor
