"""Span recorder installed from outside the program, and the statistics on spans.

A span records one call into a layer: name, start, end, the span that was
open when it began (its parent), and the id of the set-up or iteration it
belongs to.  Spans are recorded by replacing a function at the module
attribute through which its caller looks it up, so the program's source is
never edited.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import threading
import time
import tracemalloc
from dataclasses import dataclass, field
from statistics import median

TAIL_PERCENTILES = (75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; install() wraps module attributes, uninstall() restores them.

    Each thread keeps its own stack of open spans.  A span opened on a worker
    thread with nothing open on that thread takes as parent the innermost
    span open on the thread that created the recorder, which is where the
    caller waits for its pool.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._owner_stack = self._stack()
        self._installed = []
        self._alloc_calls: dict = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        outer = stack or self._owner_stack
        parent = outer[-1].id if outer else None
        span = Span(next(self._ids), name, time.perf_counter(), math.nan, parent, self.run)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def install(self, module, attr: str, name: str, attrs=None, alloc: bool = False):
        """Replace module.attr by a wrapper recording a span named `name`.

        attrs(args, kwargs, result) returns extra values stored on the span.
        With alloc set, the arguments of the calls in the latest run that
        made any are kept so that replay_alloc() can measure their
        allocation peak.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs, result))
            if alloc:
                calls = self._alloc_calls.get(name)
                if calls is None or calls[1] != self.run:
                    calls = self._alloc_calls[name] = (original, self.run, [])
                calls[2].append((args, kwargs))
            return result

        setattr(module, attr, wrapper)
        self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def next_run(self) -> None:
        """Start a new run: later spans carry the next run id."""
        self.run += 1

    def replay_alloc(self) -> dict:
        """Re-run under tracemalloc the calls of the last run that made any.

        Returns {name: peak MiB allocated inside one call, maximised over
        calls}.  The replays record no spans and are not timed.
        """
        peaks = {}
        tracemalloc.start()
        try:
            for name, (fn, _, calls) in self._alloc_calls.items():
                for args, kwargs in calls:
                    tracemalloc.reset_peak()
                    before = tracemalloc.get_traced_memory()[0]
                    fn(*args, **kwargs)
                    peak = tracemalloc.get_traced_memory()[1] - before
                    peaks[name] = max(peaks.get(name, 0.0), peak / 2**20)
        finally:
            tracemalloc.stop()
        return peaks

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent, "run": s.run,
                                     "attrs": s.attrs}) + "\n")


# --- statistics -------------------------------------------------------------

def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def children_of(spans) -> dict:
    kids: dict = {}
    for s in spans:
        kids.setdefault(s.parent, []).append(s)
    return kids


def self_time(span: Span, children) -> float:
    """Duration minus the part of the span's interval the children cover."""
    covered = [(max(c.start, span.start), min(c.end, span.end)) for c in children]
    return span.duration - union_length([iv for iv in covered if iv[1] > iv[0]])


def ancestor(span: Span, by_id: dict, name: str) -> Span | None:
    """Nearest enclosing span with the given name, or None."""
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.name == name:
            return parent
        parent = by_id.get(parent.parent)
    return None


def tail(values) -> dict:
    """Median plus the highest listed percentile with >= 10 samples beyond it.

    Percentiles are nearest-rank: the p-th is the k-th smallest value with
    k = ceil(p n / 100), and n - k samples lie beyond it.  With fewer than
    40 samples no percentile qualifies and "pct" is None.
    """
    xs = sorted(values)
    n = len(xs)
    out = {"n": n, "p50": median(xs) if n else 0.0, "pct": None, "value": None,
           "beyond": 0}
    for p in TAIL_PERCENTILES:
        k = max(1, math.ceil(p * n / 100.0 - 1e-9))
        if n - k >= MIN_BEYOND:
            out.update(pct=p, value=xs[k - 1], beyond=n - k)
    return out
