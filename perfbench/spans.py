"""In-memory span recorder with Chrome trace-event export.

The program itself is not instrumented. Spans come from two places: the
benchmark's own calls into the program's public functions (``GridIndex``,
``compile_self_join``, ``Runner.run``, ``JoinService``, and the isolated
grid/core probes), and intervals the program reports in its results
(``derive``), such as the process pool's shard events, placed under the
span they happened in.

A span has a layer, a name, start and end on ``time.perf_counter``, its
parent span and a track (``tid``) so that concurrent requests and worker
processes land on separate rows in Perfetto. Spans marked
``counted=False`` (probes that repeat work a pass already did, and the
per-worker shard tracks that overlap the pool window) and spans of the
benchmark's own ``perfbench`` layer are left out of the per-layer self
time. A disabled recorder hands out a shared no-op context, so untraced
runs pay one attribute test per call.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass

#: the layers a measured answer passes through. ``repro.apps`` is not one
#: of them: served kNN runs ``repro.runtime``'s kNN round loop, and only the
#: answer check calls ``repro.apps.knn``. ``repro.core`` has spans only
#: from the probes, which are not counted: in a measured pass its work
#: runs inside ``Runner.run`` (or in the pool's worker processes).
LAYERS = (
    "repro.grid",
    "repro.core",
    "repro.runtime",
    "repro.multigpu",
    "repro.resilience",
    "repro.serve",
    "repro.simt",
)

@dataclass
class Span:
    span_id: int
    layer: str
    name: str
    start: float
    end: float
    parent: int | None
    tid: int
    #: whether the span's self time counts toward its layer
    counted: bool = True


class Recorder:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._origin = time.perf_counter()

    def span(self, layer: str, name: str, *, tid: int = 0, counted: bool = True):
        """Context manager timing one call. Spans on track 0 nest by call
        order; spans on other tracks (concurrent requests) have no parent."""
        if not self.enabled:
            return contextlib.nullcontext()
        return self._span(layer, name, tid, counted)

    @contextlib.contextmanager
    def _span(self, layer, name, tid, counted):
        nested = tid == 0
        parent = self._stack[-1] if nested and self._stack else None
        span = Span(len(self.spans), layer, name, time.perf_counter(), 0.0, parent, tid, counted)
        self.spans.append(span)
        if nested:
            self._stack.append(span.span_id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            if nested:
                self._stack.pop()

    def derive(self, layer, name, start, end, *, parent, tid=0, counted=True) -> Span:
        """Add a span for an interval the program reported. On track 0 it
        becomes the parent of ``parent``'s children that lie inside it."""
        span = Span(len(self.spans), layer, name, start, end, parent, tid, counted)
        if tid == 0:
            for s in self.spans:
                if s.parent == parent and s.tid == 0 and start <= s.start and s.end <= end:
                    s.parent = span.span_id
        self.spans.append(span)
        return span

    def durations(self, layer: str, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.layer == layer and s.name == name]

    def last(self, layer: str, name: str) -> Span:
        return next(s for s in reversed(self.spans) if s.layer == layer and s.name == name)

    def self_seconds(self) -> dict[str, float]:
        """Per-layer self time: each counted span's duration minus its
        children's."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        totals = {layer: 0.0 for layer in LAYERS}
        for s in self.spans:
            if s.layer in totals and s.counted:
                totals[s.layer] += (s.end - s.start) - child_time[s.span_id]
        return totals

    def write_chrome_trace(self, path) -> None:
        """Chrome trace-event JSON (opens in Perfetto / chrome://tracing)."""
        events = [
            {
                "name": s.name,
                "cat": s.layer,
                "ph": "X",
                "ts": (s.start - self._origin) * 1e6,
                "dur": (s.end - s.start) * 1e6,
                "pid": 1,
                "tid": s.tid,
                "args": {"span_id": s.span_id, "parent": s.parent, "counted": s.counted},
            }
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
