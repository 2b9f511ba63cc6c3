"""Keep the persistence layer single.

Atomic ``tmp`` + rename writes and torn-line-tolerant JSONL reads live
in :mod:`repro.io` only.  A module that hand-rolls either again gets a
second copy of the crash contract that ``tests/test_io.py`` no longer
covers; this scan fails the moment one appears.
"""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent
IO_MODULE = SRC / "io.py"
RENAMES = ("os.replace(", "os.rename(")


def source_files():
    return sorted(p for p in SRC.rglob("*.py") if p != IO_MODULE)


def is_json_loads(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "loads"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "json"
    )


def json_loads_loops(tree: ast.AST) -> list[int]:
    """Line numbers of loops that call ``json.loads`` per iteration."""
    loops = (ast.For, ast.AsyncFor, ast.While, ast.ListComp,
             ast.SetComp, ast.DictComp, ast.GeneratorExp)
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, loops)
        and any(is_json_loads(inner) for inner in ast.walk(node))
    )


def test_the_scan_sees_the_package():
    assert IO_MODULE.exists()
    assert len(source_files()) > 50


def test_atomic_renames_only_in_repro_io():
    offenders = [
        f"{path.relative_to(SRC)}:{lineno}"
        for path in source_files()
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        )
        if any(call in line for call in RENAMES)
    ]
    assert offenders == [], (
        "hand-rolled atomic write; use repro.io.atomic_write_text"
    )


def test_no_hand_written_jsonl_read_loops():
    offenders = [
        f"{path.relative_to(SRC)}:{lineno}"
        for path in source_files()
        for lineno in json_loads_loops(
            ast.parse(path.read_text(encoding="utf-8"))
        )
    ]
    assert offenders == [], (
        "json.loads inside a loop; read JSONL with repro.io.read_jsonl"
    )


def test_the_loop_detector_catches_a_torn_line_reader():
    sample = (
        "import json\n"
        "def load(handle):\n"
        "    out = []\n"
        "    for line in handle:\n"
        "        try:\n"
        "            out.append(json.loads(line))\n"
        "        except ValueError:\n"
        "            continue\n"
        "    return out\n"
    )
    assert json_loads_loops(ast.parse(sample)) == [4]
