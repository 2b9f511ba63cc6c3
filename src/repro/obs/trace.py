"""Hierarchical tracing with deterministic operation-count durations.

A trace is one JSONL file per run: a header record, one record per
*finished* span, a block of metric records, and a footer.  Spans form a
tree (``study → portal → stage → table unit``) whose bracketing is
recorded as monotonically increasing *sequence numbers* — ``open`` and
``close`` — rather than timestamps.  Span cost is an operation count
taken from the :class:`~repro.resilience.budget.WorkMeter` that metered
the work, so a trace of a fixed-seed run is **byte-identical** across
machines and reruns.  Wall-clock milliseconds attach only when the
tracer is built with ``wall_clock=True`` (the CLI's ``--wall-clock``),
which intentionally forfeits that reproducibility.

Crash tolerance mirrors the crawl/study journals: records are written
line-by-line as spans finish (:class:`repro.io.JsonlWriter`), and
:func:`read_trace` skips any torn or malformed line, so a trace cut off
mid-write still yields every span that completed.
"""

from __future__ import annotations

import dataclasses
import pathlib
import time
from contextlib import contextmanager
from typing import Iterator

from ..io import JsonlWriter, read_jsonl


@dataclasses.dataclass
class Span:
    """One open (or finished) node of the span tree."""

    span_id: int
    parent_id: int | None
    name: str
    kind: str
    attrs: dict
    seq_open: int
    status: str = "ok"
    #: Operations charged directly to this span (not to children).
    self_ops: int = 0
    #: Operations accumulated from finished children.
    child_ops: int = 0
    seq_close: int | None = None
    wall_start: float | None = None

    @property
    def total_ops(self) -> int:
        """Own plus descendant operations."""
        return self.self_ops + self.child_ops

    def add_ops(self, ops: int) -> None:
        """Charge *ops* operations directly to this span."""
        self.self_ops += ops


class TraceWriter(JsonlWriter):
    """A fresh trace file that starts with its header record."""

    def __init__(self, path: str | pathlib.Path, header: dict | None = None):
        super().__init__(path)
        self.write({"type": "header", **(header or {})})


class Tracer:
    """Assigns span ids/sequence numbers and writes finished spans.

    Single-threaded by design (the pipeline is sequential): the open
    spans form a stack and every new span parents to the top.  With no
    *writer* the tracer still maintains the stack and op accounting —
    callers that only want metrics pay nothing for the missing sink.
    """

    def __init__(self, writer: TraceWriter | None = None, *,
                 wall_clock: bool = False):
        self.writer = writer
        self.wall_clock = wall_clock
        self.open_spans: list[Span] = []
        self.spans_finished = 0
        self._next_id = 1
        self._seq = 0

    def _tick_seq(self) -> int:
        self._seq += 1
        return self._seq

    @property
    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self.open_spans[-1] if self.open_spans else None

    def start(self, name: str, kind: str = "span", **attrs) -> Span:
        """Open a span as a child of the current innermost span."""
        parent = self.current
        span = Span(
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            kind=kind,
            attrs=dict(attrs),
            seq_open=self._tick_seq(),
            wall_start=time.perf_counter() if self.wall_clock else None,
        )
        self._next_id += 1
        self.open_spans.append(span)
        return span

    def finish(
        self, span: Span, status: str | None = None, ops: int = 0
    ) -> None:
        """Close *span*, roll its ops into the parent, emit its record."""
        if not self.open_spans or self.open_spans[-1] is not span:
            raise ValueError(
                f"span {span.span_id} ({span.name!r}) is not the "
                "innermost open span"
            )
        self.open_spans.pop()
        if status is not None:
            span.status = status
        span.self_ops += ops
        span.seq_close = self._tick_seq()
        parent = self.current
        if parent is not None:
            parent.child_ops += span.total_ops
        self.spans_finished += 1
        if self.writer is not None:
            record = {
                "type": "span",
                "id": span.span_id,
                "parent": span.parent_id,
                "name": span.name,
                "kind": span.kind,
                "status": span.status,
                "ops": span.total_ops,
                "self_ops": span.self_ops,
                "open": span.seq_open,
                "close": span.seq_close,
                "attrs": span.attrs,
            }
            if span.wall_start is not None:
                record["wall_ms"] = round(
                    (time.perf_counter() - span.wall_start) * 1000.0, 3
                )
            self.writer.write(record)

    @contextmanager
    def span(self, name: str, kind: str = "span", **attrs):
        """Context-managed :meth:`start`/:meth:`finish` pair.

        An escaping exception closes the span with ``status="error"``
        and re-raises; code that classifies its own outcome sets
        ``span.status`` (or attrs) before the block exits.
        """
        opened = self.start(name, kind=kind, **attrs)
        try:
            yield opened
        except BaseException:
            self.finish(opened, status="error")
            raise
        self.finish(opened)


def read_trace(path: str | pathlib.Path) -> Iterator[dict]:
    """Yield every intact record of a trace file, skipping torn lines."""
    yield from read_jsonl(path)[0]
