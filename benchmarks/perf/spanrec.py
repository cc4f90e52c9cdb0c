"""The benchmark's own span recorder (used only by the ``--trace 1`` pass).

A span is ``(name, start, end, parent, workload id)``.  Spans are kept in
memory and written when the run ends, in Chrome trace-event format
(open with ``chrome://tracing`` or https://ui.perfetto.dev).  Spans are
recorded around calls *into* the program from the benchmark's files; the
solver's own phase spans arrive through its public ``tracer=`` argument
and are grafted under the benchmark span that made the call.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from hostinfo import write_json


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    index: int = 0
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    def __init__(self, workload: str, clock=time.perf_counter) -> None:
        self.workload = workload
        self._clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **args: object) -> Iterator[Span]:
        rec = Span(
            name=name,
            start=self._clock(),
            parent=self._stack[-1] if self._stack else None,
            index=len(self.spans),
            args=args,
        )
        self.spans.append(rec)
        self._stack.append(rec.index)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec.end = self._clock()

    def graft(self, parent: Span, records) -> None:
        """Adopt finished ``repro.observe`` span records under ``parent``.

        The program's tracer reports spans in completion order with their
        depth; a span's parent is the next record at ``depth - 1`` that
        encloses it, so parents are resolved after sorting by start time.
        """
        open_at_depth: Dict[int, int] = {}
        for rec in sorted(records, key=lambda r: (r.start, r.depth)):
            owner = open_at_depth.get(rec.depth - 1, parent.index)
            span = Span(
                name=rec.name, start=rec.start, end=rec.end,
                parent=owner, index=len(self.spans), args=dict(rec.attrs),
            )
            self.spans.append(span)
            open_at_depth[rec.depth] = span.index

    def self_seconds(self, under: Optional[Span] = None) -> Dict[str, float]:
        """Per-name self time: duration minus what child spans cover.

        With ``under``, only that span and its descendants are summed.
        """
        covered = [0.0] * len(self.spans)
        # a parent always precedes its children in ``spans``
        inside = [under is None] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.seconds
                inside[span.index] = inside[span.index] or inside[span.parent]
            if span is under:
                inside[span.index] = True
        totals: Dict[str, float] = {}
        for span in self.spans:
            if inside[span.index]:
                own = max(span.seconds - covered[span.index], 0.0)
                totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def write_chrome_trace(self, path: Path) -> None:
        origin = min((s.start for s in self.spans), default=0.0)
        events = [
            {
                "name": s.name,
                "cat": s.name.split(".")[0],
                "ph": "X",
                "ts": (s.start - origin) * 1e6,
                "dur": s.seconds * 1e6,
                "pid": self.workload,
                "tid": 0,
                "args": {**s.args, "span": s.index, "parent": s.parent},
            }
            for s in self.spans
        ]
        write_json(path, {"traceEvents": events, "displayTimeUnit": "ms"})
