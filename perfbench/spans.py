"""In-memory spans for the traced run, written out as Chrome trace-event JSON.

A span records a name, the layer it belongs to (the module whose public call
it wraps), start and end in nanoseconds, and the span that was open when it
started.  Nothing is written until the run ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter_ns


@dataclass
class Span:
    span_id: int
    name: str
    layer: str
    start_ns: int
    parent: int | None
    args: dict = field(default_factory=dict)
    end_ns: int = 0

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str, **args):
        parent = self._open[-1] if self._open else None
        record = Span(len(self.spans), name, layer, 0, parent, args)
        self.spans.append(record)
        self._open.append(record.span_id)
        record.start_ns = perf_counter_ns()
        try:
            yield record
        finally:
            record.end_ns = perf_counter_ns()
            self._open.pop()

    def chrome_trace(self) -> dict:
        """Complete ("X") events in microseconds, loadable by Perfetto."""
        t0 = min((s.start_ns for s in self.spans), default=0)
        events = [{
            "name": s.name,
            "cat": s.layer,
            "ph": "X",
            "ts": (s.start_ns - t0) / 1e3,
            "dur": (s.end_ns - s.start_ns) / 1e3,
            "pid": 1,
            "tid": 1,
            "args": {"span_id": s.span_id, "parent": s.parent, **s.args},
        } for s in self.spans]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)


def self_seconds(spans: list[Span]) -> dict[str, float]:
    """Per layer: the time of its spans not covered by their child spans."""
    child_ns: dict[int, int] = {}
    for s in spans:
        if s.parent is not None:
            child_ns[s.parent] = child_ns.get(s.parent, 0) + s.end_ns - s.start_ns
    out: dict[str, float] = {}
    for s in spans:
        own = s.end_ns - s.start_ns - child_ns.get(s.span_id, 0)
        out[s.layer] = out.get(s.layer, 0.0) + own / 1e9
    return out
