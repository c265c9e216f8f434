"""In-memory spans around the benchmark's calls into the program.

A span records its name, start and end (``perf_counter_ns``), the index of
the span that was open when it started, and a request id shared by every
span under one root span. Self time is a span's duration minus the part of
its interval that its child spans cover.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: int
    end: int
    parent: int  # index into the span list, -1 for a root
    request: int


def untraced(name: str, fn: Callable) -> Callable:
    """The wrap used with tracing off: the function itself, at no cost."""
    return fn


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self._open: list[int] = []
        self._requests = 0

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            if open_:
                parent, request = open_[-1], spans[open_[-1]].request
            else:
                parent, request = -1, self._requests
                self._requests += 1
            index = len(spans)
            spans.append(Span(name, perf_counter_ns(), 0, parent, request))
            open_.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[index] = spans[index]._replace(end=perf_counter_ns())

        return traced


def covered(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of [start, end) covered by the union of the intervals."""
    total, lo, hi = 0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, start), min(b, end)
        if b <= a:
            continue
        if hi is None or a > hi:
            total += 0 if hi is None else hi - lo
            lo, hi = a, b
        else:
            hi = max(hi, b)
    return total + (0 if hi is None else hi - lo)


def self_times(spans: list[Span]) -> dict[str, list[int]]:
    """Span name -> self time of each of its spans, in nanoseconds."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        out.setdefault(s.name, []).append(s.end - s.start - covered(s.start, s.end, children.get(i, [])))
    return out


def summary(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, median and total self time in microseconds."""
    return {
        name: {"calls": len(ns), "p50_us": statistics.median(ns) / 1e3, "self_total_ms": sum(ns) / 1e6}
        for name, ns in sorted(self_times(spans).items())
    }
