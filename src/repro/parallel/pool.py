"""Supervised persistent worker pool: the process substrate of
:func:`repro.parallel.run_grid` and the :mod:`repro.serve` job engine.

``concurrent.futures.ProcessPoolExecutor`` cannot do three things a
hardened service needs:

* **kill one hung task** — a stuck worker can only be abandoned, never
  reclaimed, so a per-task wall deadline cannot actually be enforced;
* **survive a worker death** — one ``os._exit`` breaks the whole pool;
* **stream mid-task progress** — there is no channel from a running
  task back to the supervisor, so hang detection has nothing to watch.

:class:`SupervisedPool` keeps one long-lived process per worker slot,
each attached to the supervisor by a duplex pipe.  Tasks are dispatched
to idle workers in submission order; a task may emit progress messages
through an injected ``emit`` callback (which doubles as the heartbeat
and the cooperative-cancellation point); a worker that dies — for any
reason, at any time — is detected via its process sentinel, reported as
a ``crashed`` event for the task it was running, and its slot is
respawned so the pool never shrinks.  :meth:`SupervisedPool.kill`
terminates a specific task's worker on purpose (deadline/hang
enforcement) with the same respawn guarantee.

The pool is deliberately policy-free: it reports events
(``started`` / ``progress`` / ``done`` / ``error`` / ``cancelled`` /
``crashed``) and leaves retries, deadlines and state machines to its
callers (:func:`~repro.parallel.runner.run_grid`,
:class:`repro.serve.engine.SolveEngine`).
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _mp_wait
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "TaskCancelled",
    "PoolTask",
    "PoolEvent",
    "SupervisedPool",
    "EVENT_KINDS",
]

#: event kinds a :meth:`SupervisedPool.poll` call may return
EVENT_KINDS = ("started", "progress", "done", "error", "cancelled", "crashed")

# task states (terminal: done/error/cancelled/crashed/killed)
PENDING = "pending"
RUNNING = "running"
DONE = "done"
ERROR = "error"
CANCELLED = "cancelled"
CRASHED = "crashed"
KILLED = "killed"


class TaskCancelled(Exception):
    """Raised inside a worker when the supervisor requested cancellation.

    Task functions normally never see it: the injected ``emit`` callback
    raises it and the worker main loop catches it.  A task that must
    release resources on cancellation may catch and re-raise.
    """


@dataclass
class PoolTask:
    """Supervisor-side record of one submitted task."""

    id: int
    label: str
    fn: Callable[..., Any]
    kwargs: Dict[str, Any]
    #: name of a keyword argument to inject the worker-side ``emit``
    #: callback into (``None`` = the function takes no progress channel)
    emit_kwarg: Optional[str] = None
    state: str = PENDING
    result: Any = None
    #: transported exception (``error``) or exit code (``crashed``)
    error: Optional[BaseException] = None
    exitcode: Optional[int] = None
    worker_id: Optional[int] = None
    submitted_at: float = field(default_factory=time.monotonic)
    started_at: Optional[float] = None
    ended_at: Optional[float] = None

    @property
    def terminal(self) -> bool:
        return self.state in (DONE, ERROR, CANCELLED, CRASHED, KILLED)


@dataclass
class PoolEvent:
    """One observation from the pool: ``kind`` is one of
    :data:`EVENT_KINDS`; ``payload`` carries progress data, the result,
    or the transported error."""

    kind: str
    task: PoolTask
    payload: Any = None


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------


def _worker_main(conn, workers: int) -> None:
    """Loop: receive a task, run it, report; exit on ``stop`` or EOF.

    Progress messages and cooperative cancellation both flow through the
    injected ``emit``: every call first drains pending supervisor
    messages (a queued ``cancel`` raises :class:`TaskCancelled`), then
    sends the progress payload.  The worker is one of ``workers`` that
    share the host, so its compiled kernels split their work over its
    share of the CPUs.
    """
    from ..jit.dispatch import share_cpus

    share_cpus(workers)
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg[0] == "stop":
            return
        if msg[0] == "cancel":
            # cancel for a task that already finished; nothing to do
            continue
        _, tid, fn, kwargs, emit_kwarg = msg

        def emit(payload: Any, _tid=tid) -> None:
            while conn.poll():
                m = conn.recv()
                if m[0] == "cancel":
                    raise TaskCancelled()
                if m[0] == "stop":
                    raise SystemExit(0)
            conn.send(("progress", _tid, payload))

        try:
            if emit_kwarg is not None:
                kwargs = dict(kwargs)
                kwargs[emit_kwarg] = emit
            result = fn(**kwargs)
            conn.send(("done", tid, result))
        except TaskCancelled:
            conn.send(("cancelled", tid, None))
        except SystemExit:
            return
        except BaseException as exc:
            try:
                conn.send(("error", tid, exc))
            except Exception:
                # unpicklable exception (or unpicklable attributes):
                # transport a plain summary instead of dying silently
                conn.send(
                    ("error", tid, RuntimeError(f"{type(exc).__name__}: {exc}"))
                )


class _Worker:
    """One supervised slot: a live process, its pipe, and its task."""

    __slots__ = ("id", "proc", "conn", "current")

    def __init__(self, wid: int, ctx, workers: int) -> None:
        self.id = wid
        self.conn, child = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=_worker_main, args=(child, workers), daemon=True,
            name=f"repro-pool-{wid}",
        )
        self.proc.start()
        child.close()
        self.current: Optional[PoolTask] = None


# ----------------------------------------------------------------------
# supervisor
# ----------------------------------------------------------------------


class SupervisedPool:
    """A fixed-size pool of supervised worker processes.

    Parameters
    ----------
    workers : int
        Worker slots; each is a long-lived process reused across tasks
        and respawned whenever it dies or is killed.
    context : multiprocessing context, optional
        Defaults to the platform default (``fork`` on Linux — fast and
        compatible with closures over already-imported modules).

    Use as a context manager; :meth:`shutdown` is idempotent.
    """

    def __init__(self, workers: int, context=None) -> None:
        if workers < 1:
            raise ValueError("pool needs at least one worker")
        self._ctx = context or mp.get_context()
        self._workers: List[_Worker] = [
            _Worker(i, self._ctx, workers) for i in range(workers)
        ]
        self._pending: deque = deque()
        self._ids = itertools.count()
        self._closed = False

    # -- submission ----------------------------------------------------

    def submit(
        self,
        fn: Callable[..., Any],
        kwargs: Dict[str, Any],
        label: Optional[str] = None,
        emit_kwarg: Optional[str] = None,
    ) -> PoolTask:
        """Queue ``fn(**kwargs)``; returns the task record immediately.

        The task starts when a worker slot frees up (reported as a
        ``started`` event from :meth:`poll`).  ``fn`` and every value in
        ``kwargs`` must be picklable.
        """
        if self._closed:
            raise RuntimeError("pool is shut down")
        task = PoolTask(
            id=next(self._ids),
            label=label if label is not None else f"task[{fn.__name__}]",
            fn=fn,
            kwargs=kwargs,
            emit_kwarg=emit_kwarg,
        )
        self._pending.append(task)
        return task

    @property
    def idle_workers(self) -> int:
        return sum(1 for w in self._workers if w.current is None)

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    # -- event loop ----------------------------------------------------

    def _dispatch(self, events: List[PoolEvent]) -> None:
        for worker in self._workers:
            if not self._pending:
                break
            if worker.current is not None:
                continue
            task = self._pending.popleft()
            if task.state == CANCELLED:  # cancelled while pending
                continue
            worker.conn.send(
                ("task", task.id, task.fn, task.kwargs, task.emit_kwarg)
            )
            worker.current = task
            task.worker_id = worker.id
            task.state = RUNNING
            task.started_at = time.monotonic()
            events.append(PoolEvent("started", task))

    def _finish(self, task: PoolTask, state: str) -> None:
        task.state = state
        task.ended_at = time.monotonic()

    def _handle_message(self, worker: _Worker, msg, events: List[PoolEvent]) -> None:
        kind, tid, payload = msg
        task = worker.current
        if task is None or task.id != tid:
            # message for a task we already force-killed; drop it
            return
        if kind == "progress":
            events.append(PoolEvent("progress", task, payload))
            return
        if kind == "done":
            task.result = payload
            self._finish(task, DONE)
        elif kind == "error":
            task.error = payload
            self._finish(task, ERROR)
        elif kind == "cancelled":
            self._finish(task, CANCELLED)
        worker.current = None
        events.append(PoolEvent(kind, task, payload))

    def _respawn(self, worker: _Worker) -> None:
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.proc.is_alive():
            worker.proc.terminate()
        worker.proc.join(timeout=5.0)
        fresh = _Worker(worker.id, self._ctx, len(self._workers))
        self._workers[self._workers.index(worker)] = fresh

    def poll(self, timeout: float = 0.0) -> List[PoolEvent]:
        """Dispatch pending tasks and collect events for up to ``timeout``
        seconds (0 = only what is already available).

        Returns immediately once at least one event is available;
        ``started`` events from dispatching count.
        """
        events: List[PoolEvent] = []
        self._dispatch(events)
        deadline = time.monotonic() + max(timeout, 0.0)
        first = True
        while True:
            wait_s = 0.0 if (events or not first) else max(
                deadline - time.monotonic(), 0.0
            )
            first = False
            sources: Dict[Any, _Worker] = {}
            for w in self._workers:
                sources[w.conn] = w
                sources[w.proc.sentinel] = w
            ready = _mp_wait(list(sources), timeout=wait_s)
            if not ready:
                break
            dead: List[_Worker] = []
            for r in ready:
                worker = sources[r]
                if r is worker.conn:
                    # drain everything the worker has sent so far;
                    # results beat sentinel-based crash detection when a
                    # worker finished a task and then died
                    try:
                        while worker.conn.poll():
                            self._handle_message(worker, worker.conn.recv(), events)
                    except (EOFError, OSError):
                        if worker not in dead:
                            dead.append(worker)
                elif not worker.proc.is_alive():
                    if worker not in dead:
                        dead.append(worker)
            for worker in dead:
                # flush any result that raced the death
                try:
                    while worker.conn.poll():
                        self._handle_message(worker, worker.conn.recv(), events)
                except (EOFError, OSError):
                    pass
                task = worker.current
                exitcode = worker.proc.exitcode
                worker.current = None
                self._respawn(worker)
                if task is not None and not task.terminal:
                    task.exitcode = exitcode
                    self._finish(task, CRASHED)
                    events.append(PoolEvent("crashed", task, exitcode))
            self._dispatch(events)
        return events

    # -- control -------------------------------------------------------

    def request_cancel(self, task: PoolTask) -> bool:
        """Ask a task to stop cooperatively.

        A pending task is cancelled immediately (and reported ``True``);
        a running task gets a ``cancel`` message it will observe at its
        next ``emit`` call — a task that never emits must be
        :meth:`kill`-ed instead.  Returns False for terminal tasks.
        """
        if task.terminal:
            return False
        if task.state == PENDING:
            self._finish(task, CANCELLED)
            return True
        worker = self._worker_of(task)
        if worker is not None:
            try:
                worker.conn.send(("cancel", task.id))
            except (OSError, ValueError):
                return False
        return True

    def kill(self, task: PoolTask, state: str = KILLED) -> bool:
        """Forcibly terminate the worker running ``task`` and respawn it.

        The deadline/hang-enforcement primitive: the worker process is
        gone within ``terminate()`` semantics, the slot is respawned, the
        task is marked ``state`` (default ``killed``).  Returns False if
        the task was not running.
        """
        if task.state == PENDING:
            self._finish(task, state)
            try:
                self._pending.remove(task)
            except ValueError:
                pass
            return True
        worker = self._worker_of(task)
        if worker is None:
            return False
        worker.current = None
        self._finish(task, state)
        self._respawn(worker)
        return True

    def _worker_of(self, task: PoolTask) -> Optional[_Worker]:
        for w in self._workers:
            if w.current is task:
                return w
        return None

    def shutdown(self) -> None:
        """Stop all workers (idempotent); pending tasks are dropped."""
        if self._closed:
            return
        self._closed = True
        self._pending.clear()
        for w in self._workers:
            try:
                w.conn.send(("stop",))
            except (OSError, ValueError):
                pass
        for w in self._workers:
            w.proc.join(timeout=1.0)
            if w.proc.is_alive():
                w.proc.terminate()
                w.proc.join(timeout=5.0)
            try:
                w.conn.close()
            except OSError:
                pass

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SupervisedPool(workers={len(self._workers)}, "
            f"idle={self.idle_workers}, pending={len(self._pending)})"
        )
