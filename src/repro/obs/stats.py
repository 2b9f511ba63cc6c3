"""Work-budget attribution from a trace file (``ogdp-repro stats``).

Answers the questions the resilience layer could not: where did the
operation budget actually go, which portal's tables triggered
degradation, and which individual tables were the most expensive.  The
input is a JSONL trace written by :mod:`repro.obs.trace`; the output is
either a flame-style text breakdown or a machine-readable JSON document
whose totals reconcile exactly with the executor's recorded
:class:`~repro.resilience.executor.StageOutcome` tallies and
:class:`~repro.resilience.budget.WorkMeter` spend.
"""

from __future__ import annotations

import dataclasses
import pathlib

from ..io import read_jsonl

#: Width of the '#' attribution bars in the text report.
BAR_WIDTH = 24


@dataclasses.dataclass
class TraceData:
    """One parsed trace file."""

    path: str
    header: dict
    spans: list[dict]
    metrics: dict[str, dict]
    footer: dict | None
    #: Structural problems found by validation; empty = trace is sound.
    problems: list[str]
    #: Torn/malformed lines skipped while reading (expected after a
    #: mid-write kill; not a validity problem on their own).
    torn: int = 0

    @property
    def valid(self) -> bool:
        return not self.problems

    @property
    def unit_spans(self) -> list[dict]:
        """Spans of executor ``(stage, table)`` units."""
        return [s for s in self.spans if s.get("kind") == "unit"]

    @property
    def total_ops(self) -> int:
        """Every operation attributed anywhere in the trace."""
        return sum(s.get("self_ops", 0) for s in self.spans)

    @property
    def unit_ops(self) -> int:
        """Operations spent inside executor units (replays charge 0)."""
        return sum(s.get("self_ops", 0) for s in self.unit_spans)


def load_trace(path: str | pathlib.Path) -> TraceData:
    """Parse and validate one trace file.

    Tolerates anything :func:`~repro.obs.trace.read_trace` tolerates —
    an empty file, a torn-only file, a missing footer — and reports the
    damage (``torn`` count, ``problems``) instead of raising, so
    ``stats`` and ``diff`` can describe a broken trace rather than
    crash on it.
    """
    header: dict = {}
    spans: list[dict] = []
    metrics: dict[str, dict] = {}
    footer: dict | None = None
    records, torn = read_jsonl(path)
    for record in records:
        rtype = record.get("type")
        if rtype == "header":
            header = record
        elif rtype == "span":
            spans.append(record)
        elif rtype == "metric":
            name = record.get("name")
            if name is not None:
                metrics[name] = {
                    k: v for k, v in record.items() if k not in ("type", "name")
                }
        elif rtype == "footer":
            footer = record
    problems = validate_spans(spans)
    if footer is not None and footer.get("spans") != len(spans):
        problems.append(
            f"footer declares {footer.get('spans')} spans, "
            f"file holds {len(spans)}"
        )
    return TraceData(
        path=str(path),
        header=header,
        spans=spans,
        metrics=metrics,
        footer=footer,
        problems=problems,
        torn=torn,
    )


def validate_spans(spans: list[dict]) -> list[str]:
    """Structural check: spans form a strictly nested tree.

    Verifies unique ids, unique open/close sequence numbers, each
    span's interval strictly inside its parent's, and sibling
    intervals pairwise disjoint.
    """
    problems: list[str] = []
    by_id: dict[int, dict] = {}
    for span in spans:
        span_id = span.get("id")
        if span_id in by_id:
            problems.append(f"duplicate span id {span_id}")
        by_id[span_id] = span

    seqs: list[int] = []
    for span in spans:
        open_seq, close_seq = span.get("open"), span.get("close")
        if not isinstance(open_seq, int) or not isinstance(close_seq, int):
            problems.append(f"span {span.get('id')} missing open/close")
            continue
        if open_seq >= close_seq:
            problems.append(
                f"span {span.get('id')} closes before it opens "
                f"({open_seq} >= {close_seq})"
            )
        seqs.extend((open_seq, close_seq))
        parent_id = span.get("parent")
        if parent_id is not None:
            parent = by_id.get(parent_id)
            if parent is None:
                problems.append(
                    f"span {span.get('id')} references missing "
                    f"parent {parent_id}"
                )
            elif not (
                parent.get("open", 0) < open_seq
                and close_seq < parent.get("close", 0)
            ):
                problems.append(
                    f"span {span.get('id')} not nested inside "
                    f"parent {parent_id}"
                )
    if len(set(seqs)) != len(seqs):
        problems.append("duplicate open/close sequence numbers")

    siblings: dict[int | None, list[dict]] = {}
    for span in spans:
        siblings.setdefault(span.get("parent"), []).append(span)
    for group in siblings.values():
        ordered = sorted(group, key=lambda s: s.get("open", 0))
        for before, after in zip(ordered, ordered[1:]):
            if before.get("close", 0) > after.get("open", 0):
                problems.append(
                    f"sibling spans {before.get('id')} and "
                    f"{after.get('id')} overlap"
                )
    return problems


def _span_portal(span: dict) -> str:
    return span.get("attrs", {}).get("portal", "-")


def _span_stage(span: dict) -> str:
    if span.get("kind") == "unit":
        return span.get("attrs", {}).get("stage", span.get("name", "?"))
    return span.get("name", "?")


def attribution(trace: TraceData) -> dict[str, dict]:
    """Per-portal, per-stage operation totals (self-ops only).

    Self-ops are used so that nothing is double counted: a portal's
    total is exactly the sum of its stages', and the study total is
    exactly the sum of the portals'.
    """
    portals: dict[str, dict] = {}
    for span in trace.spans:
        ops = span.get("self_ops", 0)
        if ops == 0 and span.get("kind") not in ("stage", "unit"):
            continue
        portal = portals.setdefault(
            _span_portal(span), {"ops": 0, "stages": {}}
        )
        portal["ops"] += ops
        stage = portal["stages"].setdefault(
            _span_stage(span), {"ops": 0, "units": 0}
        )
        stage["ops"] += ops
        if span.get("kind") == "unit":
            stage["units"] += 1
    return portals


def outcome_counts(trace: TraceData) -> dict[str, int]:
    """Unit spans per terminal status (replayed units included)."""
    counts: dict[str, int] = {}
    for span in trace.unit_spans:
        status = span.get("status", "?")
        counts[status] = counts.get(status, 0) + 1
    return counts


def top_tables(trace: TraceData, limit: int = 10) -> list[dict]:
    """The most expensive per-table units, by operations spent."""
    per_table: dict[tuple[str, str], dict] = {}
    for span in trace.unit_spans:
        attrs = span.get("attrs", {})
        table = attrs.get("table", "?")
        if table == "*":
            continue
        key = (_span_portal(span), table)
        entry = per_table.setdefault(
            key,
            {
                "portal": key[0],
                "table": table,
                "ops": 0,
                "stages": [],
                "worst_status": "ok",
            },
        )
        entry["ops"] += span.get("self_ops", 0)
        stage = _span_stage(span)
        if stage not in entry["stages"]:
            entry["stages"].append(stage)
        if span.get("status", "ok") != "ok":
            entry["worst_status"] = span["status"]
    ranked = sorted(
        per_table.values(),
        key=lambda e: (-e["ops"], e["portal"], e["table"]),
    )
    return ranked[:limit]


def degradation_ledger(trace: TraceData) -> list[dict]:
    """Every non-OK span, in execution (close) order."""
    degraded = [
        span
        for span in trace.spans
        if span.get("status", "ok") != "ok"
    ]
    degraded.sort(key=lambda s: s.get("close", 0))
    return [
        {
            "portal": _span_portal(span),
            "stage": _span_stage(span),
            "table": span.get("attrs", {}).get("table", "-"),
            "status": span.get("status"),
            "ops": span.get("self_ops", 0),
            "replayed": bool(span.get("attrs", {}).get("replayed", False)),
            "detail": span.get("attrs", {}).get("detail", ""),
        }
        for span in degraded
    ]


def stats_json(trace: TraceData, top: int = 10) -> dict:
    """The machine-readable ``stats --json`` document."""
    return {
        "trace": trace.path,
        "header": {
            k: v for k, v in trace.header.items() if k != "type"
        },
        "valid": trace.valid,
        "problems": trace.problems,
        "torn_lines": trace.torn,
        "span_count": len(trace.spans),
        "total_ops": trace.total_ops,
        "unit_ops": trace.unit_ops,
        "outcomes": outcome_counts(trace),
        "portals": attribution(trace),
        "top_tables": top_tables(trace, top),
        "degraded": degradation_ledger(trace),
        "metrics": trace.metrics,
    }


def _bar(ops: int, peak: int) -> str:
    length = round(BAR_WIDTH * ops / peak) if peak else 0
    return "#" * length


def _pct(part: int, whole: int) -> str:
    return f"{100.0 * part / whole:5.1f}%" if whole else "  0.0%"


def render_stats(trace: TraceData, top: int = 10) -> str:
    """The flame-style text report for one trace."""
    from ..report.render import render_table

    lines: list[str] = []
    header = trace.header
    meta = " ".join(
        f"{key}={header[key]}"
        for key in ("seed", "scale", "stage_budget")
        if key in header and header[key] is not None
    )
    nesting = "OK" if trace.valid else f"BROKEN ({len(trace.problems)})"
    lines.append(
        f"trace {trace.path}: {len(trace.spans)} spans, nesting {nesting}"
        + (f", {meta}" if meta else "")
    )
    if trace.torn:
        lines.append(
            f"  note: {trace.torn} torn line(s) skipped "
            "(file cut off mid-write?)"
        )
    for problem in trace.problems:
        lines.append(f"  problem: {problem}")

    if not trace.spans:
        lines.append("")
        lines.append(
            "no spans: the trace holds no completed spans "
            "(empty, torn, or killed before any unit finished)"
        )
        return "\n".join(lines)

    total = trace.total_ops
    lines.append("")
    lines.append(f"work-budget attribution ({total} ops total)")
    portals = attribution(trace)
    peak = max((p["ops"] for p in portals.values()), default=0)
    for portal_code in sorted(portals):
        portal = portals[portal_code]
        lines.append(
            f"  {portal_code:<4} {_bar(portal['ops'], peak):<{BAR_WIDTH}} "
            f"{portal['ops']:>12} {_pct(portal['ops'], total)}"
        )
        stage_peak = max(
            (s["ops"] for s in portal["stages"].values()), default=0
        )
        for stage_name in sorted(
            portal["stages"],
            key=lambda n: (-portal["stages"][n]["ops"], n),
        ):
            stage = portal["stages"][stage_name]
            unit_note = (
                f" ({stage['units']} units)" if stage["units"] else ""
            )
            lines.append(
                f"    {stage_name:<12} "
                f"{_bar(stage['ops'], stage_peak):<{BAR_WIDTH}} "
                f"{stage['ops']:>12} {_pct(stage['ops'], portal['ops'])}"
                f"{unit_note}"
            )

    outcomes = outcome_counts(trace)
    if outcomes:
        tally = ", ".join(
            f"{outcomes[status]} {status}" for status in sorted(outcomes)
        )
        lines.append("")
        lines.append(f"unit outcomes: {tally}")

    expensive = top_tables(trace, top)
    if expensive:
        lines.append("")
        lines.append(
            render_table(
                f"Top {len(expensive)} tables by operations",
                ["portal", "table", "ops", "stages", "status"],
                [
                    [
                        entry["portal"],
                        entry["table"],
                        entry["ops"],
                        "+".join(entry["stages"]),
                        entry["worst_status"],
                    ]
                    for entry in expensive
                ],
            )
        )

    ledger = degradation_ledger(trace)
    if ledger:
        lines.append("")
        lines.append(
            render_table(
                "Degradation ledger",
                ["portal", "stage", "table", "status", "ops", "detail"],
                [
                    [
                        row["portal"],
                        row["stage"],
                        row["table"],
                        row["status"] + (" (replayed)" if row["replayed"] else ""),
                        row["ops"],
                        row["detail"][:60],
                    ]
                    for row in ledger
                ],
            )
        )
    return "\n".join(lines)
