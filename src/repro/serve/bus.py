"""Progress bus: per-job event streams for subscribers.

The WebCodecs shape named in the ROADMAP — configure → enqueue →
*callback per output* → flush — needs a delivery substrate: every job
emits a stream of :class:`ProgressEvent`s (state changes, per-restart
residuals and phase timings, terminal summaries) and subscribers tap
either one job's stream or the whole engine's.

Delivery is synchronous on the engine's supervisor thread (callbacks
must be quick and must not call back into the engine — same rule as any
event-loop callback).  A subscriber exception is contained: it detaches
that subscriber rather than poisoning the engine.  Each job also keeps
a bounded ring of its most recent events so late observers can catch
up, and :meth:`ProgressBus.flush` marks streams closed so a drained
engine's subscribers get a definitive end-of-stream signal.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional

__all__ = ["ProgressEvent", "ProgressBus"]


@dataclass(frozen=True)
class ProgressEvent:
    """One observation about one job (or the engine itself).

    ``kind`` vocabulary: ``state`` (lifecycle transition), ``progress``
    (per-restart residual/phase data from the worker), ``attempt``
    (dispatch/retry/degradation), ``result`` (terminal summary), and
    ``stream_closed`` (flush marker — the last event a subscriber sees).
    """

    seq: int
    job_id: Optional[str]
    kind: str
    payload: Dict[str, Any] = field(default_factory=dict)
    ts: float = field(default_factory=time.monotonic)


class _Subscription:
    __slots__ = ("token", "callback", "job_id")

    def __init__(self, token: int, callback, job_id: Optional[str]) -> None:
        self.token = token
        self.callback = callback
        self.job_id = job_id


#: events each job's replay buffer keeps
_BUFFER_EVENTS = 256


class ProgressBus:
    """Publish/subscribe hub with bounded per-job replay buffers."""

    def __init__(self) -> None:
        self._seq = itertools.count()
        self._tokens = itertools.count()
        self._subs: Dict[int, _Subscription] = {}
        self._buffers: Dict[str, Deque[ProgressEvent]] = {}
        self._closed = False
        #: events published (delivery-independent; health accounting)
        self.published = 0
        #: subscribers detached because their callback raised
        self.poisoned_subscribers = 0

    # -- subscription ---------------------------------------------------

    def subscribe(
        self,
        callback: Callable[[ProgressEvent], None],
        job_id: Optional[str] = None,
    ) -> int:
        """Register ``callback``; ``job_id=None`` receives every event.

        Returns an opaque token for :meth:`unsubscribe`.
        """
        token = next(self._tokens)
        self._subs[token] = _Subscription(token, callback, job_id)
        return token

    def unsubscribe(self, token: int) -> bool:
        return self._subs.pop(token, None) is not None

    @property
    def subscriber_count(self) -> int:
        return len(self._subs)

    # -- publishing -----------------------------------------------------

    def publish(
        self,
        job_id: Optional[str],
        kind: str,
        payload: Optional[Dict[str, Any]] = None,
    ) -> ProgressEvent:
        """Deliver an event to matching subscribers and buffer it."""
        event = ProgressEvent(
            seq=next(self._seq), job_id=job_id, kind=kind,
            payload=payload or {},
        )
        self.published += 1
        if job_id is not None:
            buf = self._buffers.setdefault(
                job_id, deque(maxlen=_BUFFER_EVENTS)
            )
            buf.append(event)
        for sub in list(self._subs.values()):
            if sub.job_id is not None and sub.job_id != job_id:
                continue
            try:
                sub.callback(event)
            except Exception:
                # a broken subscriber must not poison the engine loop
                self._subs.pop(sub.token, None)
                self.poisoned_subscribers += 1
        return event

    def events(self, job_id: str) -> List[ProgressEvent]:
        """The buffered (most recent) events of one job."""
        return list(self._buffers.get(job_id, ()))

    # -- lifecycle ------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def flush(self, job_ids: Optional[List[str]] = None) -> None:
        """End-of-stream: publish ``stream_closed`` per job, then one
        engine-level marker, and mark the bus closed.  Idempotent."""
        if self._closed:
            return
        for job_id in (job_ids if job_ids is not None else list(self._buffers)):
            self.publish(job_id, "stream_closed")
        self.publish(None, "stream_closed", {"scope": "engine"})
        self._closed = True
