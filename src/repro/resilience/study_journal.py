"""Study journal: per-(stage, table) checkpoints for resumable analyses.

The analysis mirror of :mod:`repro.resilience.checkpoint`: where the
crawl journal checkpoints fetched resources, the study journal
checkpoints finished *analysis stage units* — one JSON line per
``(stage, table)`` pair, carrying the recorded
:class:`~repro.resilience.executor.StageOutcome` fields plus an optional
stage-specific payload (e.g. the per-table FD/normalization
contribution).  A study killed mid-analysis and rerun with the same
journal replays completed units instead of recomputing them.

Both journals are one :class:`~repro.resilience.checkpoint.KeyedJournal`
implementation: every record is flushed line-by-line as it completes,
and a torn trailing line left by a mid-write kill is skipped on reload
(the torn unit is simply recomputed).
"""

from __future__ import annotations

import dataclasses

from .checkpoint import KeyedJournal


class MergeConflict(RuntimeError):
    """Two shard journals disagree about one completed unit.

    Raised by :func:`~repro.resilience.pool.merge_shards` when the same
    unit appears in multiple shards with *different* record contents.
    Under the determinism contract this is impossible for honestly
    computed units — equal inputs produce equal records — so a conflict
    always means shard corruption or a scheduler bug, and the merge
    refuses to guess which side is right.
    """


@dataclasses.dataclass(frozen=True)
class StageRecord:
    """One journalled (stage, table) analysis unit."""

    #: Stage identifier, e.g. ``"screen"``, ``"fd"``.
    stage: str
    #: Resource id of the table, or ``"*"`` for portal-wide stages.
    table_id: str
    #: ``StageStatus.name`` of the recorded outcome.
    status: str
    #: Ticks the unit charged against its meter.
    ticks: int
    #: Budget the unit ran under (None = unlimited).
    budget: int | None
    #: Human-readable failure/truncation detail.
    detail: str = ""
    #: Stage-specific JSON payload (replayed verbatim), or None.
    payload: object | None = None

    @property
    def key(self) -> tuple[str, str]:
        """The journal key of this record."""
        return (self.stage, self.table_id)

    def to_record(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_record(cls, record: dict) -> "StageRecord":
        return cls(**record)


class StudyJournal(KeyedJournal):
    """Stage-keyed checkpoint store for one portal's analyses."""

    record_type = StageRecord

    def get(self, stage: str, table_id: str) -> StageRecord | None:
        """The checkpointed record for ``(stage, table_id)``, if any."""
        return super().get((stage, table_id))
