"""The persistence layer: atomic writes and torn-tolerant JSONL.

Every artifact the repo persists is written and read back one of two
ways:

* **whole documents** (join indexes, profiles, bench histories,
  quarantine records, shard files) go through :func:`atomic_write_text`
  — written to ``<name>.tmp`` beside the target, then ``os.replace``d
  over it, so a process killed mid-write leaves either the old file or
  the new one, never a torn one;
* **append streams** (crawl/study journals, traces) are written one
  flushed JSON line per record by :class:`JsonlWriter` and read back by
  :func:`read_jsonl`, which keeps every intact object line and counts
  the rest as *torn* — a kill mid-line costs that line, never the
  records before it.

Nothing here fsyncs: durability against process death (the failure the
resilience layer injects) needs only ordered writes and the atomic
rename, not a flush of the OS page cache.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import IO


def atomic_write_text(path: str | pathlib.Path, text: str) -> pathlib.Path:
    """Replace *path* with *text* atomically; returns the final path.

    Creates the parent directory, writes ``<name>.tmp`` beside the
    target and renames it over the target.  If the write fails the
    target is untouched.
    """
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, target)
    return target


def read_jsonl(path: str | pathlib.Path) -> tuple[list[dict], int]:
    """The intact object records of a JSONL file, plus a torn count.

    Blank lines are skipped.  A line that is not JSON (a write cut off
    mid-line) or not a JSON object counts as torn.  Raises
    :class:`OSError` if *path* cannot be opened.
    """
    records: list[dict] = []
    torn = 0
    with pathlib.Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                torn += 1
                continue
            if isinstance(record, dict):
                records.append(record)
            else:
                torn += 1
    return records, torn


def jsonl_line(record: dict) -> str:
    """*record* as one canonical JSONL line (sorted keys, newline)."""
    return json.dumps(record, sort_keys=True) + "\n"


class JsonlWriter:
    """One flushed JSON line per record.

    *mode* is ``"w"`` (truncate: traces) or ``"a"`` (append: journals).
    Writes after :meth:`close` are dropped.
    """

    def __init__(self, path: str | pathlib.Path, mode: str = "w"):
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: IO[str] | None = self.path.open(mode, encoding="utf-8")

    def write(self, record: dict) -> None:
        """Write *record* as a complete, flushed JSON line."""
        if self._handle is None:
            return
        self._handle.write(jsonl_line(record))
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
