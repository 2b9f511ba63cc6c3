"""Crash-consistency properties of the persistence layer (repro.io).

Every artifact the repo persists goes through ``atomic_write_text`` or
the JSONL writer/reader pair, so these properties are the crash
contract of all of them at once:

* a JSONL file cut at *any* byte offset reloads exactly the records
  whose lines were complete, with at most one torn line;
* an atomic write killed before its rename leaves the old file
  byte-identical, and no ``*.tmp`` outlives a successful write.
"""

import json
import pathlib
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io import JsonlWriter, atomic_write_text, jsonl_line, read_jsonl

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)
json_records = st.dictionaries(st.text(max_size=6), json_values, max_size=4)


def stray_tmp_files(directory: pathlib.Path) -> list[pathlib.Path]:
    return sorted(directory.glob("*.tmp"))


class TestTruncatedJsonl:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(json_records, max_size=5))
    def test_every_truncation_reloads_the_complete_prefix(self, records):
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "stream.jsonl"
            writer = JsonlWriter(path)
            for record in records:
                writer.write(record)
            writer.close()
            data = path.read_bytes()
            # Canonical lines are pure ASCII, so a byte offset never
            # splits a character.
            assert data.isascii()
            line_ends = []
            end = 0
            for record in records:
                end += len(jsonl_line(record))
                line_ends.append(end - 1)  # offset of the line's "\n"
            for cut in range(len(data) + 1):
                path.write_bytes(data[:cut])
                loaded, torn = read_jsonl(path)
                complete = [
                    record
                    for record, line_end in zip(records, line_ends)
                    if line_end <= cut
                ]
                assert loaded == complete
                assert torn in (0, 1)
                at_boundary = cut == 0 or cut in line_ends or any(
                    cut == line_end + 1 for line_end in line_ends
                )
                assert torn == (0 if at_boundary else 1)

    def test_blank_lines_skipped_and_non_objects_torn(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_text(
            '{"a": 1}\n\n   \n[1, 2]\n7\n{"b": 2}\n{"c"\n', encoding="utf-8"
        )
        assert read_jsonl(path) == ([{"a": 1}, {"b": 2}], 3)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            read_jsonl(tmp_path / "absent.jsonl")


class TestJsonlWriter:
    def test_append_mode_extends_truncate_mode_replaces(self, tmp_path):
        path = tmp_path / "deep" / "stream.jsonl"
        for mode, n in (("w", 1), ("a", 2)):
            writer = JsonlWriter(path, mode=mode)
            writer.write({"n": n})
            writer.close()
        assert read_jsonl(path) == ([{"n": 1}, {"n": 2}], 0)
        writer = JsonlWriter(path)
        writer.write({"n": 3})
        writer.close()
        assert path.read_text(encoding="utf-8") == '{"n": 3}\n'

    def test_each_line_is_flushed_and_late_writes_dropped(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        writer = JsonlWriter(path)
        writer.write({"b": 1, "a": 2})
        # Visible to a reader before close: a kill loses nothing written.
        assert path.read_text(encoding="utf-8") == '{"a": 2, "b": 1}\n'
        writer.close()
        writer.write({"late": True})
        assert read_jsonl(path) == ([{"a": 2, "b": 1}], 0)


class TestAtomicWrite:
    @settings(max_examples=40, deadline=None)
    @given(old=st.text(), new=st.text())
    def test_kill_before_rename_keeps_old_bytes(self, old, new):
        with tempfile.TemporaryDirectory() as tmp:
            target = pathlib.Path(tmp) / "artifact.json"
            atomic_write_text(target, old)
            before = target.read_bytes()
            with mock.patch(
                "repro.io.os.replace", side_effect=OSError("killed")
            ):
                with pytest.raises(OSError):
                    atomic_write_text(target, new)
            assert target.read_bytes() == before
            # The next successful write claims the leftover temp file.
            assert atomic_write_text(target, new) == target
            assert target.read_bytes() == new.encode("utf-8")
            assert stray_tmp_files(pathlib.Path(tmp)) == []

    @settings(max_examples=20, deadline=None)
    @given(st.lists(json_records, min_size=1, max_size=4))
    def test_successful_writes_leave_no_tmp(self, documents):
        with tempfile.TemporaryDirectory() as tmp:
            target = pathlib.Path(tmp) / "nested" / "doc.json"
            for document in documents:
                atomic_write_text(
                    target, json.dumps(document, sort_keys=True) + "\n"
                )
                assert json.loads(target.read_text(encoding="utf-8")) == (
                    document
                )
                assert stray_tmp_files(target.parent) == []
