"""Crawl journal: per-resource checkpoints for resumable ingestion.

``ingest_portal`` appends one JSON line per finished resource (outcome,
retry provenance, and — for resources that produced a table — the raw
payload).  A crawl killed mid-portal and restarted with the same journal
replays the completed entries instead of re-fetching them, so the resumed
run issues requests only for the resources the first run never reached
and still produces an identical report.

The payload is stored verbatim (base64) rather than the parsed table:
parsing is deterministic, so replaying the §2.2 parse over the recorded
bytes reconstructs the exact :class:`~repro.ingest.pipeline.IngestedTable`
without any network traffic.
"""

from __future__ import annotations

import base64
import dataclasses
import pathlib
from typing import Iterator

from ..io import JsonlWriter, read_jsonl


@dataclasses.dataclass(frozen=True)
class JournalEntry:
    """Everything one finished resource contributes to the report."""

    resource_id: str
    url: str
    #: ``FetchOutcome.name`` of the terminal state.
    outcome: str
    attempts: int
    recovered: bool
    circuit_skipped: bool
    #: Whether the kept payload was shorter than declared (DEGRADED).
    truncated: bool
    #: Simulated seconds spent waiting for this resource.
    waited: float
    #: Raw fetched bytes; only recorded for outcomes that yield a table.
    payload: bytes | None = None

    @property
    def key(self) -> str:
        """The journal key of this entry."""
        return self.resource_id

    def to_record(self) -> dict:
        record = dataclasses.asdict(self)
        record["payload"] = (
            base64.b64encode(self.payload).decode("ascii")
            if self.payload is not None
            else None
        )
        return record

    @classmethod
    def from_record(cls, record: dict) -> "JournalEntry":
        record = dict(record)
        payload = record.pop("payload", None)
        return cls(
            **record,
            payload=base64.b64decode(payload) if payload is not None else None,
        )


class KeyedJournal:
    """Append-only, keyed JSONL checkpoint store.

    Opening an existing journal loads every intact record (a later
    record for the same key wins); :meth:`record` appends new ones and
    flushes each line immediately, so an interrupted process loses at
    most the unit it was working on.  A torn line — a kill mid-write,
    or a record the codec rejects — is skipped and its unit simply
    recomputed.  With a *metrics* registry the load is counted as
    ``journal.torn_lines`` and ``journal.loaded_records``.

    Subclasses set :attr:`record_type`, a class with a ``key``
    property, ``to_record()`` and ``from_record(dict)``.
    """

    record_type: type

    def __init__(self, path: str | pathlib.Path, metrics=None):
        self.path = pathlib.Path(path)
        self._records: dict = {}
        self._writer: JsonlWriter | None = None
        if not self.path.exists():
            return
        objects, torn = read_jsonl(self.path)
        for obj in objects:
            try:
                record = self.record_type.from_record(obj)
            except (ValueError, KeyError, TypeError):
                torn += 1
                continue
            self._records[record.key] = record
        if metrics is not None:
            if torn:
                metrics.inc("journal.torn_lines", torn)
            if self._records:
                metrics.inc("journal.loaded_records", len(self._records))

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key) -> bool:
        return key in self._records

    def __iter__(self) -> Iterator:
        return iter(self._records.values())

    def get(self, key):
        """The checkpointed record for *key*, if any."""
        return self._records.get(key)

    def record(self, record) -> None:
        """Append *record* and flush it to disk immediately."""
        if self._writer is None:
            self._writer = JsonlWriter(self.path, mode="a")
        self._records[record.key] = record
        self._writer.write(record.to_record())

    def close(self) -> None:
        """Close the underlying file handle (records stay readable)."""
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class CrawlJournal(KeyedJournal):
    """Resource-keyed checkpoint store for one portal crawl."""

    record_type = JournalEntry
