"""Timing statistics and in-memory spans for the wall-clock benchmark.

Two jobs, both free of any dependency on the program under test:

* the reporting rule for a timing — a median plus the highest
  percentile that still has :data:`MIN_BEYOND` samples beyond it;
* a span recorder: each span is ``(id, parent, name, start, end)`` in
  ``perf_counter_ns`` units, kept in memory and written out as JSONL
  when the run ends.  Spans are opened by the benchmark's own files,
  either around a call or by wrapping a module attribute the program
  looks up at call time (:meth:`SpanRecorder.wrap`).  The untraced
  :class:`NullRecorder` times its blocks the same way but keeps nothing,
  so traced and untraced passes measure the same interval.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import json
import statistics
import threading
import time

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10

Span = collections.namedtuple("Span", "id parent name start end")


class Timing:
    """The wall seconds of one ``span`` block, set when the block ends."""

    seconds = 0.0


def median(values) -> float:
    """The median of a non-empty sequence."""
    return statistics.median(values)


def tail(values) -> tuple[float, float]:
    """``(percentile, value)`` of the highest percentile with
    :data:`MIN_BEYOND` samples beyond it.

    Of *n* sorted samples the *k*-th (1-based) has ``n - k`` samples
    beyond it, so the highest qualifying one is ``k = n - MIN_BEYOND``,
    at percentile ``100 * k / n``.  With ``MIN_BEYOND`` samples or fewer
    no percentile qualifies and the slowest sample is returned as the
    100th percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail() of no samples")
    if n <= MIN_BEYOND:
        return 100.0, ordered[-1]
    k = n - MIN_BEYOND
    return 100.0 * k / n, ordered[k - 1]


def self_times(spans) -> dict[int, int]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to the parent's interval and overlapping
    children are counted once, so the self times of a tree add up to
    its root's duration exactly.
    """
    children = collections.defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result = {}
    for span in spans:
        covered = 0
        cursor = span.start
        for start, end in sorted(children[span.id]):
            start = max(start, cursor)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.id] = (span.end - span.start) - covered
    return result


def layer_totals(spans) -> dict[str, dict]:
    """Per span name: call count, inclusive and self seconds."""
    selfs = self_times(spans)
    totals: dict[str, dict] = {}
    for span in spans:
        entry = totals.setdefault(
            span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        entry["calls"] += 1
        entry["total_s"] += (span.end - span.start) / 1e9
        entry["self_s"] += selfs[span.id] / 1e9
    return totals


class SpanRecorder:
    """Collects spans per thread; parents never cross threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        timing = Timing()
        start = time.perf_counter_ns()
        try:
            yield timing
        finally:
            end = time.perf_counter_ns()
            timing.seconds = (end - start) / 1e9
            stack.pop()
            self.spans.append(Span(span_id, parent, name, start, end))

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a spanned call until :meth:`unwrap`."""
        original = getattr(owner, attr)

        def spanned(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(owner, attr, spanned)
        self._patches.append((owner, attr, original))

    def unwrap(self) -> None:
        """Restore every wrapped attribute, last wrapped first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write the spans as JSONL, one span per line, by id."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.id):
                handle.write(json.dumps(span._asdict()) + "\n")


class NullRecorder:
    """The untraced stand-in: spans are timed but not recorded."""

    @contextlib.contextmanager
    def span(self, name: str):
        timing = Timing()
        start = time.perf_counter_ns()
        try:
            yield timing
        finally:
            timing.seconds = (time.perf_counter_ns() - start) / 1e9

    def unwrap(self) -> None:
        pass
