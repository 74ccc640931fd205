"""Spans around the solver's layer functions, recorded from outside the package.

A span is aggregated by name on close: call count, total time and self time
(total minus the time of the spans opened inside it).  Only aggregates are
kept, so a march of 10,000 steps costs a few dictionary updates per call and
no memory per call.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.count: Counter[str] = Counter()
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self._children: list[float] = []  # child time of each open span

    def _open(self) -> float:
        self._children.append(0.0)
        return perf_counter()

    def _close(self, name: str, start: float) -> None:
        duration = perf_counter() - start
        child = self._children.pop()
        self.count[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - child
        if self._children:
            self._children[-1] += duration

    @contextmanager
    def span(self, name: str):
        start = self._open()
        try:
            yield
        finally:
            self._close(name, start)

    def wrap(self, name: str, fn):
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = open_()
            try:
                return fn(*args, **kwargs)
            finally:
                close(name, start)

        return traced

    @contextmanager
    def patched(self, targets):
        """Replace owner.attribute by a traced wrapper for each
        (span name, owner, attribute) in targets, and restore it on exit."""
        saved = []
        try:
            for name, owner, attr in targets:
                original = vars(owner)[attr]
                setattr(owner, attr, self.wrap(name, original))
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def mean_us(self, name: str) -> float:
        calls = self.count[name]
        return self.total[name] / calls * 1e6 if calls else 0.0
