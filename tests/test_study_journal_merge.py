"""Study-journal shard reconciliation (``repro.resilience.pool.merge_shards``).

The worker pool persists per-worker shard journals — a fingerprint
header line, then one envelope per finished unit — and reconciles them
with ``merge_shards`` after the fleet drains.  These tests pin that
merge contract: deterministic shard order, duplicate deduplication,
hard failure on conflicting duplicates, and torn-line tolerance.
"""

import dataclasses
import json

import pytest

from repro.resilience import MergeConflict
from repro.resilience.pool import merge_shards
from repro.resilience.study_journal import StageRecord

FINGERPRINT = {"seed": 7, "scale": 0.05}
HEADER = {"shard": "w0", "fingerprint": FINGERPRINT}


def record(stage="screen", table_id="t1", *, status="OK", ticks=10, **kw):
    return StageRecord(
        stage=stage,
        table_id=table_id,
        status=status,
        ticks=ticks,
        budget=kw.pop("budget", 1000),
        detail=kw.pop("detail", ""),
        payload=kw.pop("payload", None),
    )


def envelope(rec, worker="w0", profile=None):
    """A pool shard line wrapping the record."""
    env = {
        "unit": ["SG", rec.stage, rec.table_id],
        "worker": worker,
        "record": dataclasses.asdict(rec),
        "metrics": {},
    }
    if profile is not None:
        env["profile"] = profile
    return env


def write_shard(path, lines, header=HEADER):
    text = "\n".join(
        line if isinstance(line, str) else json.dumps(line, sort_keys=True)
        for line in [header, *lines]
    )
    path.write_text(text + "\n", encoding="utf-8")
    return path


def merged_records(merged):
    return {key: StageRecord(**env["record"]) for key, env in merged.items()}


class TestMerge:
    def test_interleaved_shards_union(self, tmp_path):
        """Disjoint units scattered across shards all land in the map."""
        w0 = write_shard(
            tmp_path / "shard-w0.jsonl",
            [envelope(record(table_id="t1")), envelope(record("fd", "t3"))],
        )
        w1 = write_shard(
            tmp_path / "shard-w1.jsonl",
            [
                envelope(record(table_id="t2"), "w1"),
                envelope(record("fd", "t1"), "w1"),
            ],
        )
        records = merged_records(merge_shards([w1, w0], FINGERPRINT))
        assert len(records) == 4
        assert records[("SG", "screen", "t1")] == record(table_id="t1")
        assert records[("SG", "fd", "t1")] == record("fd", "t1")

    def test_merge_order_is_path_sorted(self, tmp_path):
        """The merged map ignores the order shards are handed in."""
        twin = record(table_id="a")
        w0 = write_shard(tmp_path / "shard-w0.jsonl", [envelope(twin, "w0")])
        w1 = write_shard(
            tmp_path / "shard-w1.jsonl",
            [envelope(twin, "w1"), envelope(record(table_id="b"), "w1")],
        )
        forward = merge_shards([w0, w1], FINGERPRINT)
        reverse = merge_shards([w1, w0], FINGERPRINT)
        assert list(forward.items()) == list(reverse.items())
        # The duplicate resolves to the sorted-first shard's envelope.
        assert forward[("SG", "screen", "a")]["worker"] == "w0"

    def test_identical_duplicates_dedupe(self, tmp_path):
        """A re-dispatched unit persisted by two workers merges silently."""
        twin = record(table_id="t1", ticks=42)
        write_shard(tmp_path / "shard-w0.jsonl", [envelope(twin, "w0")])
        write_shard(tmp_path / "shard-w1.jsonl", [envelope(twin, "w1")])
        merged = merge_shards(
            sorted(tmp_path.glob("shard-*.jsonl")), FINGERPRINT
        )
        assert merged_records(merged) == {("SG", "screen", "t1"): twin}

    def test_conflicting_duplicates_raise(self, tmp_path):
        write_shard(
            tmp_path / "shard-w0.jsonl",
            [envelope(record(table_id="t1", ticks=42))],
        )
        write_shard(
            tmp_path / "shard-w1.jsonl",
            [envelope(record(table_id="t1", ticks=43), "w1")],
        )
        with pytest.raises(MergeConflict) as excinfo:
            merge_shards(sorted(tmp_path.glob("shard-*.jsonl")), FINGERPRINT)
        assert "disagrees" in str(excinfo.value)

    def test_conflicting_profiles_raise(self, tmp_path):
        """Equal records with different frame snapshots still conflict."""
        twin = record(table_id="t1")
        write_shard(
            tmp_path / "shard-w0.jsonl",
            [envelope(twin, "w0", profile={"study;SG;fd": 5})],
        )
        write_shard(
            tmp_path / "shard-w1.jsonl",
            [envelope(twin, "w1", profile={"study;SG;fd": 6})],
        )
        with pytest.raises(MergeConflict):
            merge_shards(sorted(tmp_path.glob("shard-*.jsonl")), FINGERPRINT)


class TestShardTolerance:
    def test_torn_lines_skipped(self, tmp_path):
        shard = write_shard(
            tmp_path / "shard-w0.jsonl",
            [
                envelope(record(table_id="t1")),
                "[1, 2]",
                '{"unit": ["SG", "fd", "t2"], "record": {"sta',
            ],
        )
        assert merged_records(merge_shards([shard], FINGERPRINT)) == {
            ("SG", "screen", "t1"): record(table_id="t1")
        }

    def test_header_lines_ignored(self, tmp_path):
        shard = write_shard(
            tmp_path / "shard-w0.jsonl",
            [HEADER, envelope(record(table_id="t1"))],
        )
        merged = merge_shards([shard], FINGERPRINT)
        assert list(merged) == [("SG", "screen", "t1")]

    def test_missing_shards_are_not_an_error(self, tmp_path):
        missing = tmp_path / "never-written.jsonl"
        assert merge_shards([missing], FINGERPRINT) == {}

    def test_foreign_fingerprint_ignored_wholesale(self, tmp_path):
        ours = write_shard(
            tmp_path / "shard-w0.jsonl", [envelope(record(table_id="t1"))]
        )
        foreign = write_shard(
            tmp_path / "shard-w1.jsonl",
            [envelope(record(table_id="t1", ticks=99), "w1")],
            header={"shard": "w1", "fingerprint": {"seed": 8}},
        )
        merged = merge_shards([ours, foreign], FINGERPRINT)
        assert merged_records(merged) == {
            ("SG", "screen", "t1"): record(table_id="t1")
        }

    def test_merged_journal_replays_through_constructor(self, tmp_path):
        """Merged envelopes rebuild the exact records the workers wrote,
        payloads included — the pool adopts them through the
        ``StageRecord`` constructor."""
        fd = record("fd", "t1", payload={"fds": [[0, 1]], "rows": 3})
        shard = write_shard(
            tmp_path / "shard-w0.jsonl",
            [envelope(record(table_id="t1")), envelope(fd)],
        )
        records = merged_records(merge_shards([shard], FINGERPRINT))
        assert records == {
            ("SG", "screen", "t1"): record(table_id="t1"),
            ("SG", "fd", "t1"): fd,
        }
