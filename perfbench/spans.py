"""In-memory span recorder for the traced benchmark run (standard library only).

A span is one timed call at a layer boundary: name, start, end, parent,
thread and run id. Spans opened on a thread with no open span of its own (a
worker thread of a pool) are parented to the open root span, which the
benchmark opens around each pipeline invocation. Spans stay in memory and
are written out once, when the run ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    thread: int
    run: str

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Recorder:
    """Collects spans and named counts; safe to use from several threads."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, root: bool = False):
        stack = self._stack()
        with self._lock:
            sid = next(self._ids)
        parent = stack[-1] if stack else self._root
        stack.append(sid)
        if root:
            self._root = sid
        start = time.perf_counter_ns()
        try:
            yield sid
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            if root:
                self._root = None
            with self._lock:
                self.spans.append(Span(sid, name, start, end, parent,
                                       threading.get_ident(), self.run_id))

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def to_dict(self) -> dict:
        return {"run": self.run_id, "spans": [asdict(s) for s in self.spans],
                "counts": dict(self.counts)}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)


def spans_from_dict(doc: dict) -> list[Span]:
    return [Span(**s) for s in doc["spans"]]


def _covered_ns(start_ns: int, end_ns: int, intervals) -> int:
    """Length of [start, end] covered by the union of ``intervals``."""
    clipped = sorted((max(a, start_ns), min(b, end_ns)) for a, b in intervals)
    total, cur_a, cur_b = 0, None, None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time_ns(span: Span, subtract) -> int:
    """Duration of ``span`` minus the part of it the spans in ``subtract``
    cover, usually its children. Children on worker threads may overlap each
    other; overlapping time is subtracted once.
    """
    return span.duration_ns - _covered_ns(span.start_ns, span.end_ns,
                                          [(c.start_ns, c.end_ns) for c in subtract])


def inclusive_ns(spans, name: str) -> int:
    """Total time of spans called ``name``, not counting a span twice when it
    runs inside another span of the same name."""
    by_id = {s.id: s for s in spans}

    def nested_in_same(s: Span) -> bool:
        p = by_id.get(s.parent)
        while p is not None:
            if p.name == name:
                return True
            p = by_id.get(p.parent)
        return False

    return sum(s.duration_ns for s in spans if s.name == name and not nested_in_same(s))
