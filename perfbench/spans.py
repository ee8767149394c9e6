"""In-memory span recorder for the benchmark's traced runs.

Spans are opened around the benchmark's own calls into the package, kept
in a list while the run lasts and written out as JSONL when it ends.  A
span's self time is its duration minus the time covered by its children.
With tracing off the workloads get :data:`NULL`, whose spans record
nothing, so traced and untraced runs execute the same workload code.

A finished span is kept as a tuple of plain values, which the cyclic
garbage collector stops tracking; keeping tens of thousands of tracked
objects instead makes every collection slower and the traced run with it.
"""

from __future__ import annotations

import json
import time
from typing import NamedTuple


class SpanRecord(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


class Span:
    """An open span; use as a context manager."""

    __slots__ = ("tracer", "name", "attrs", "id", "parent", "start")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def set(self, **attrs) -> None:
        """Attach counts, also after the span has closed."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        tracer = self.tracer
        self.parent = tracer.stack[-1] if tracer.stack else None
        self.id = tracer.opened
        tracer.opened += 1
        tracer.stack.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        self.tracer.stack.pop()
        self.tracer.records.append(
            SpanRecord(self.id, self.name, self.start, end, self.parent, self.attrs))


class Tracer:
    """Records nested spans of one run; ``run_id`` tags every span."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.records: list[SpanRecord] = []
        self.stack: list[int] = []
        self.opened = 0

    def span(self, name: str, **attrs) -> Span:
        return Span(self, name, attrs)

    def spans(self) -> list[SpanRecord]:
        """Finished spans in opening order, so that ``spans()[i].id == i``
        once every span has closed."""
        return sorted(self.records)

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its direct children cover.

        Children of one span run one after another on one thread, so they
        never overlap and their durations can simply be subtracted.
        """
        own = {s.id: s.duration for s in self.records}
        for s in self.records:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans():
                fh.write(json.dumps({"run": self.run_id, "id": s.id, "name": s.name,
                                     "start": s.start, "end": s.end,
                                     "parent": s.parent, "attrs": s.attrs}) + "\n")


class _NullSpan:
    __slots__ = ()

    def set(self, **attrs) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


class _NullTracer:
    _span = _NullSpan()

    def span(self, name: str, **attrs) -> _NullSpan:
        return self._span


#: the tracer of untraced runs: spans cost one method call and record nothing
NULL = _NullTracer()
