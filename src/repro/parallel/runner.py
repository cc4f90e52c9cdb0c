"""Deterministic parallel fan-out of experiment grids.

The bench (`python -m repro bench`) and fault-campaign (`python -m repro
faults`) commands sweep a matrix × storage (× fault × rate) grid whose
cells are *independent solves*: each cell builds its own problem,
tracer and (seeded) fault injectors, so cells share no mutable state
and can run in separate processes.  :func:`run_grid` fans such a grid
out over a :class:`repro.parallel.pool.SupervisedPool` while keeping
the results **deterministic**:

* results are returned in *task submission order*, never completion
  order — a grid run with ``jobs=8`` is field-for-field identical to
  ``jobs=1`` on every deterministic metric;
* randomness must be task-local: every cell derives its seed from its
  grid coordinates (e.g. the campaign's ``(seed, fault, storage, rate)``
  spawn keys), so partitioning work across workers cannot reorder any
  random stream;
* ``jobs=1`` short-circuits to a plain in-process loop — byte-identical
  to the historical serial path, with no pickling requirement at all.

Failure handling is a mode, not a fate:

* ``on_error="raise"`` (default, the historical behaviour): the first
  failing task — a raised exception, a dead worker process, or a blown
  per-task deadline — aborts the grid with a :class:`WorkerCrashError`
  naming that task;
* ``on_error="collect"``: the grid always runs to completion and failed
  tasks appear *in the results list* as :class:`WorkerCrashError`
  records (check ``isinstance(r, WorkerCrashError)``), so one crashed
  cell no longer throws away the rest of a long campaign.

The ``timeout`` parameter is a **true per-task wall deadline**: the
clock starts when the task begins executing on a worker (not at
submission, not at result collection), so an early hung task can never
consume the budget of later tasks.  A task that exceeds it has its
worker process killed and respawned — the slot is reclaimed, remaining
tasks keep running.  In serial mode (``jobs=1``) there is no process to
kill, so ``timeout`` is not enforced there.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from .pool import SupervisedPool

__all__ = ["WorkerCrashError", "resolve_jobs", "run_grid", "ON_ERROR_MODES"]

#: accepted ``on_error`` modes of :func:`run_grid`
ON_ERROR_MODES = ("raise", "collect")

#: grace window (seconds) to drain near-simultaneous failures before
#: picking the lowest-submission-index one in ``raise`` mode
_RAISE_DRAIN_S = 0.2


class WorkerCrashError(RuntimeError):
    """A grid worker raised, died, or blew its deadline; names the task.

    Attributes
    ----------
    label : str
        Human-readable identity of the failed task (e.g.
        ``"bench[atmosmodd/frsz2_32]"``).
    cause : BaseException or None
        The worker's exception when one was transported back; a
        ``TimeoutError`` for a blown deadline; ``None`` when the worker
        process died without one (segfault, ``os._exit``, OOM kill).
    kind : str
        Failure class: ``"error"`` (worker raised), ``"crash"`` (worker
        process died), or ``"timeout"`` (per-task deadline exceeded).
    """

    def __init__(
        self,
        label: str,
        cause: Optional[BaseException] = None,
        kind: str = "error",
    ) -> None:
        if cause is not None:
            detail = f": {cause}"
        elif kind == "crash":
            detail = " (worker process died)"
        else:
            detail = ""
        super().__init__(f"grid worker failed on {label}{detail}")
        self.label = label
        self.cause = cause
        self.kind = kind


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value.

    ``None`` or ``1`` mean serial; ``0`` and negative values mean "all
    cores" (``os.cpu_count()``), mirroring ``make -j`` conventions.
    """
    if jobs is None:
        return 1
    jobs = int(jobs)
    if jobs <= 0:
        return max(os.cpu_count() or 1, 1)
    return jobs


def _run_serial(
    fn: Callable[..., Any],
    tasks: List[Dict[str, Any]],
    labels: Sequence[str],
    on_error: str,
) -> List[Any]:
    if on_error == "raise":
        # exceptions propagate unchanged (easier debugging)
        return [fn(**task) for task in tasks]
    results: List[Any] = []
    for i, task in enumerate(tasks):
        try:
            results.append(fn(**task))
        except Exception as exc:
            results.append(WorkerCrashError(labels[i], exc, kind="error"))
    return results


def run_grid(
    fn: Callable[..., Any],
    tasks: Sequence[Dict[str, Any]],
    jobs: int = 1,
    labels: Optional[Sequence[str]] = None,
    timeout: Optional[float] = None,
    on_error: str = "raise",
) -> List[Any]:
    """Run ``fn(**task)`` for every task, results in submission order.

    Parameters
    ----------
    fn : callable
        The cell worker.  With ``jobs > 1`` it must be picklable (a
        module-level function) and so must every task's values.
    tasks : sequence of dict
        Keyword arguments for each cell, one dict per cell.
    jobs : int, default 1
        Worker processes.  ``1`` runs a plain serial loop in-process
        (bit-identical to the historical behaviour); ``0`` or negative
        use every core.
    labels : sequence of str, optional
        Per-task names for error reporting; defaults to
        ``task[<index>]``.
    timeout : float, optional
        Per-task wall deadline in seconds, measured from the moment the
        task **starts on a worker** — never from submission, so a slow
        early task cannot eat later tasks' budgets.  A task over
        deadline has its worker killed (and respawned); the task fails
        with ``kind="timeout"``.  ``None`` waits indefinitely.  Not
        enforced in serial mode (no process to kill).
    on_error : {"raise", "collect"}, default "raise"
        ``"raise"``: first failure aborts the grid with a
        :class:`WorkerCrashError` (ties broken by submission order).
        ``"collect"``: always return a full-length results list in
        which failed tasks are :class:`WorkerCrashError` records.

    Returns
    -------
    list
        ``[fn(**tasks[0]), fn(**tasks[1]), ...]`` — ordering never
        depends on completion order.  Under ``on_error="collect"``,
        positions whose task failed hold the error record instead.

    Raises
    ------
    WorkerCrashError
        Under ``on_error="raise"``: a worker raised, died, or timed
        out; the error names the task.  In serial mode exceptions
        propagate unchanged (easier debugging).
    """
    if on_error not in ON_ERROR_MODES:
        raise ValueError(
            f"on_error must be one of {ON_ERROR_MODES}, got {on_error!r}"
        )
    tasks = list(tasks)
    if labels is None:
        labels = [f"task[{i}]" for i in range(len(tasks))]
    elif len(labels) != len(tasks):
        raise ValueError(
            f"got {len(labels)} labels for {len(tasks)} tasks"
        )
    jobs = resolve_jobs(jobs)
    # jobs > 1 always uses the pool — even for a single task — so the
    # caller's process-isolation expectation (a crashing cell cannot
    # take down the driver) holds regardless of grid size
    if jobs == 1 or not tasks:
        return _run_serial(fn, tasks, labels, on_error)

    results: List[Any] = [None] * len(tasks)
    failures: Dict[int, WorkerCrashError] = {}
    open_count = len(tasks)
    with SupervisedPool(min(jobs, len(tasks))) as pool:
        index = {}
        handles = []
        for i, task in enumerate(tasks):
            handle = pool.submit(fn, task, label=labels[i])
            index[handle.id] = i
            handles.append(handle)

        def settle(i: int, value: Any) -> None:
            nonlocal open_count
            if isinstance(value, WorkerCrashError):
                failures[i] = value
            results[i] = value
            open_count -= 1

        def settle_event(event) -> None:
            # "started" and "progress" events settle nothing
            task = event.task
            if event.kind == "done":
                settle(index[task.id], task.result)
            elif event.kind == "error":
                settle(index[task.id],
                       WorkerCrashError(task.label, task.error, kind="error"))
            elif event.kind == "crashed":
                settle(index[task.id],
                       WorkerCrashError(task.label, None, kind="crash"))

        while open_count > 0:
            # enforce per-task deadlines (clock starts at task start)
            wait_s = 0.25
            if timeout is not None:
                now = time.monotonic()
                for handle in handles:
                    if handle.state != "running" or handle.started_at is None:
                        continue
                    remaining = handle.started_at + timeout - now
                    if remaining <= 0:
                        pool.kill(handle)
                        settle(index[handle.id], WorkerCrashError(
                            handle.label,
                            TimeoutError(
                                f"task exceeded its {timeout:g}s wall deadline"
                            ),
                            kind="timeout",
                        ))
                    else:
                        wait_s = min(wait_s, remaining)
            for event in pool.poll(timeout=wait_s):
                settle_event(event)
            if on_error == "raise" and failures:
                # near-simultaneous failures race into the supervisor in
                # worker order; drain briefly so the *earliest-submitted*
                # failure is the one reported, deterministically
                drain_until = time.monotonic() + _RAISE_DRAIN_S
                while open_count > 0 and time.monotonic() < drain_until:
                    for event in pool.poll(timeout=0.02):
                        settle_event(event)
                raise failures[min(failures)]
    return results
