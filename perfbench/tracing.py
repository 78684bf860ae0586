"""In-memory spans recorded by the benchmark around its calls into ptspin.

A span is (name, start, end, parent, task): `parent` is the index of the span
that was open when this one started, `task` the index of the task it belongs
to.  Spans stay in a list until the run ends and are then summarised (and, on
request, written out as JSON lines).  Untraced runs use `NullTracer`, whose
spans cost one attribute lookup and an empty context manager.
"""
from __future__ import annotations

import contextlib
import json
import statistics
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    task: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class NullTracer:
    """Tracer that records nothing; the default for measured runs."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, name: str, amount: int = 1) -> None:
        pass

    def wrap(self, name: str, fn):
        return fn

    def start_task(self) -> None:
        pass


class Tracer:
    """Records nested spans and named counters in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._task = -1

    def start_task(self) -> None:
        self._task += 1

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self._task)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn):
        """Return fn with every call recorded as a span called name."""
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def durations(self, name: str) -> list[float]:
        return [s.seconds for s in self.spans if s.name == name]

    def self_seconds(self, name: str) -> list[float]:
        """Duration of each span called name minus the time of its direct children."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.seconds
        return [s.seconds - child_time.get(i, 0.0)
                for i, s in enumerate(self.spans) if s.name == name]

    def total_seconds(self, prefix: str) -> float:
        """Time inside spans whose name starts with prefix, counting nested ones once."""
        total = 0.0
        for s in self.spans:
            if s.name.startswith(prefix) and not (
                    s.parent is not None and self.spans[s.parent].name.startswith(prefix)):
                total += s.seconds
        return total

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                         "parent": s.parent, "task": s.task}) + "\n")


def median_or_zero(values) -> float:
    """Median of the samples, or 0.0 when the layer was not called."""
    values = list(values)
    return statistics.median(values) if values else 0.0
