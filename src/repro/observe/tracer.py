"""Structured tracing for the solver hot paths.

The paper's performance argument is an accounting exercise: bytes moved
and instructions issued per kernel (Fig. 4, Fig. 11, the "46 spare
instructions" budget).  This module provides the observation side of
that accounting — a :class:`Tracer` with *nested spans* (wall-clock
intervals forming a tree: ``restart/arnoldi/orthogonalize/basis_read``)
and *counters* (monotonic tallies such as ``frsz2.compress.values``) —
so a solve can report where its time and traffic actually went.

Design constraints:

* **Zero overhead by default.**  Every instrumented call site holds a
  tracer reference that defaults to the shared :data:`NULL_TRACER`,
  whose operations are no-ops; hot loops additionally guard counter
  updates with ``if tracer.enabled``.  With the null tracer the solver
  is bit-identical to the un-instrumented code (tracing never touches
  numerics either way).
* **Strict nesting.**  Spans are context managers; the tracer keeps a
  stack, so each finished span knows its slash-joined path and how much
  of its time was spent in direct children (for exclusive-time
  attribution).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "SpanRecord",
    "PhaseTotal",
    "NullTracer",
    "Tracer",
    "ScopedTracer",
    "NULL_TRACER",
]


class _NullSpan:
    """Reusable no-op context manager returned by the null tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The do-nothing tracer every instrumented object holds by default.

    ``enabled`` is False so hot paths can skip even the argument
    construction of a counter update.  All methods are safe no-ops;
    queries return empty aggregates.
    """

    __slots__ = ()

    enabled = False

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, value: float = 1) -> None:
        return None

    def record(self, name: str, seconds: float, **attrs: Any) -> None:
        return None

    @property
    def spans(self) -> List["SpanRecord"]:
        return []

    @property
    def counters(self) -> Dict[str, float]:
        return {}

    def total_seconds(self, name: str, under: Optional[str] = None) -> float:
        return 0.0

    def by_name(self) -> Dict[str, "PhaseTotal"]:
        return {}

    def reset(self) -> None:
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NullTracer()"


#: the shared default tracer (stateless, safe to share globally)
NULL_TRACER = NullTracer()


@dataclass
class SpanRecord:
    """One finished span: a named wall-clock interval in the span tree."""

    name: str
    #: slash-joined ancestry, e.g. ``restart/arnoldi/spmv``
    path: str
    depth: int
    start: float
    end: float = 0.0
    #: wall seconds spent inside *direct* child spans
    child_seconds: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        """Inclusive duration (children included)."""
        return self.end - self.start

    @property
    def exclusive_seconds(self) -> float:
        """Duration minus time attributed to direct children."""
        return max(self.seconds - self.child_seconds, 0.0)


@dataclass
class PhaseTotal:
    """Aggregate over all spans sharing a name."""

    count: int = 0
    seconds: float = 0.0
    exclusive_seconds: float = 0.0


class _LiveSpan:
    """Context manager handed out by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_rec")

    def __init__(self, tracer: "Tracer", rec: SpanRecord) -> None:
        self._tracer = tracer
        self._rec = rec

    def __enter__(self) -> SpanRecord:
        return self._rec

    def __exit__(self, *exc: object) -> bool:
        self._tracer._finish(self._rec)
        return False


class Tracer:
    """Collect nested spans and counters from instrumented call sites.

    Attach one tracer to every cooperating object of a run (solver,
    basis, accessors, codec, matrix) so their spans share one tree and
    their counters one namespace; see ``repro.bench.perf`` for the
    canonical wiring.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._stack: List[SpanRecord] = []
        #: finished spans in completion order
        self.spans: List[SpanRecord] = []
        #: counter name -> accumulated value
        self.counters: Dict[str, float] = {}

    # -- recording ------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> _LiveSpan:
        """Open a nested span; use as ``with tracer.span("spmv"): ...``.

        Parameters
        ----------
        name : str
            Span name; repeated names aggregate in :meth:`by_name`.
        **attrs
            Arbitrary key/value annotations stored on the record
            (e.g. ``slot=3``, ``vectors=j``).

        Returns
        -------
        context manager
            Entering returns the live :class:`SpanRecord`; exiting
            stamps the end time and attributes child time to the
            parent.
        """
        parent = self._stack[-1] if self._stack else None
        rec = SpanRecord(
            name=name,
            path=f"{parent.path}/{name}" if parent else name,
            depth=len(self._stack),
            start=self._clock(),
            attrs=attrs,
        )
        self._stack.append(rec)
        return _LiveSpan(self, rec)

    def _finish(self, rec: SpanRecord) -> None:
        rec.end = self._clock()
        # spans are context managers, so nesting is structural; tolerate
        # a mismatched stack anyway (an inner span leaked by a hook)
        while self._stack and self._stack[-1] is not rec:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        if self._stack:
            self._stack[-1].child_seconds += rec.seconds
        self.spans.append(rec)

    def record(self, name: str, seconds: float, **attrs: Any) -> None:
        """A finished span of ``seconds`` that ends now, nested under the
        open span: how a compiled call's own parts enter the tree (the
        Arnoldi step reports the time of its basis walks as one
        ``basis_read`` under ``orthogonalize``)."""
        end = self._clock()
        parent = self._stack[-1] if self._stack else None
        self.spans.append(SpanRecord(
            name=name,
            path=f"{parent.path}/{name}" if parent else name,
            depth=len(self._stack),
            start=end - seconds,
            end=end,
            attrs=attrs,
        ))
        if parent:
            parent.child_seconds += seconds

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` (created at zero).

        Parameters
        ----------
        name : str
            Dotted counter name (``frsz2.compress.values``,
            ``accessor.tile_reads``, ...).  One flat namespace per
            tracer.
        value : int or float, default 1
            Increment; tallies are monotone by convention.
        """
        self.counters[name] = self.counters.get(name, 0) + value

    def reset(self) -> None:
        """Drop all finished spans and counters (open spans survive)."""
        self.spans.clear()
        self.counters.clear()

    # -- aggregation ----------------------------------------------------

    def total_seconds(self, name: str, under: Optional[str] = None) -> float:
        """Inclusive seconds of all spans named ``name``.

        With ``under``, only spans nested (at any depth) inside a span of
        that name are summed — e.g. ``total_seconds("basis_read",
        under="update")`` isolates the solution-update reads from the
        orthogonalization reads.
        """
        total = 0.0
        needle = None if under is None else f"/{under}/"
        for rec in self.spans:
            if rec.name != name:
                continue
            if needle is not None:
                # ancestry = path with the leaf name stripped off
                ancestry = "/" + rec.path[: len(rec.path) - len(name)]
                if needle not in ancestry:
                    continue
            total += rec.seconds
        return total

    def by_name(self) -> Dict[str, PhaseTotal]:
        """Aggregate spans by name: count, inclusive and exclusive time."""
        out: Dict[str, PhaseTotal] = {}
        for rec in self.spans:
            agg = out.setdefault(rec.name, PhaseTotal())
            agg.count += 1
            agg.seconds += rec.seconds
            agg.exclusive_seconds += rec.exclusive_seconds
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Tracer(spans={len(self.spans)}, counters={len(self.counters)}, "
            f"open={len(self._stack)})"
        )


class ScopedTracer:
    """A tracer view that prefixes every span and counter name.

    Multi-tenant call sites — the :mod:`repro.serve` job engine in
    particular — funnel many jobs' observations through *one* underlying
    tracer.  Without scoping their counters collide (job A's
    ``attempts`` is indistinguishable from job B's); with a scope each
    job gets its own dotted namespace::

        job_tracer = ScopedTracer(engine_tracer, f"serve.job.{job_id}")
        job_tracer.count("retries")     # -> serve.job.<id>.retries
        with job_tracer.span("attempt"):  # span named serve.job.<id>.attempt
            ...

    Scopes nest (``scope()`` on a scoped tracer concatenates prefixes)
    and wrapping the :data:`NULL_TRACER` stays a zero-overhead no-op
    (``enabled`` mirrors the base tracer, so guarded hot paths skip
    work exactly as before).
    """

    __slots__ = ("base", "prefix")

    def __init__(self, base, prefix: str) -> None:
        if not prefix:
            raise ValueError("scope prefix must be non-empty")
        self.base = base
        self.prefix = prefix

    @property
    def enabled(self) -> bool:
        return self.base.enabled

    def _qualify(self, name: str) -> str:
        return f"{self.prefix}.{name}"

    def span(self, name: str, **attrs: Any):
        return self.base.span(self._qualify(name), **attrs)

    def count(self, name: str, value: float = 1) -> None:
        self.base.count(self._qualify(name), value)

    def record(self, name: str, seconds: float, **attrs: Any) -> None:
        self.base.record(self._qualify(name), seconds, **attrs)

    def scope(self, prefix: str) -> "ScopedTracer":
        """A child scope: ``scope("x").scope("y")`` prefixes ``x.y.``."""
        return ScopedTracer(self.base, self._qualify(prefix))

    @property
    def counters(self) -> Dict[str, float]:
        """The base tracer's counters restricted to this scope,
        returned with the prefix stripped."""
        needle = self.prefix + "."
        return {
            name[len(needle):]: value
            for name, value in self.base.counters.items()
            if name.startswith(needle)
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ScopedTracer({self.prefix!r}, base={self.base!r})"
