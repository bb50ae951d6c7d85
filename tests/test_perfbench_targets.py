"""The benchmark's span targets and library calls still name streamgate objects.

``perfbench/spans.py`` wraps each of its ``TARGETS`` by name; a target that no
longer resolves leaves its spans empty.  ``perfbench/child.py`` calls the
library as ``sg.<name>``; a name that no longer resolves fails only when its
workload runs.  The files are read as text, so these tests neither import nor
write anything under ``perfbench/``.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
CHILD = PERFBENCH / "child.py"


def _targets() -> tuple[str, ...]:
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} assigns no TARGETS")


def test_every_span_target_resolves():
    targets = _targets()
    assert targets
    for target in targets:
        layer, *qualname = target.split(".")
        obj = importlib.import_module(f"streamgate.{layer}")
        for part in qualname:
            assert hasattr(obj, part), f"{target}: streamgate.{layer} has no {'.'.join(qualname)}"
            obj = getattr(obj, part)
        assert callable(obj), target


def _library_names() -> set[str]:
    """Every dotted name child.py reads from ``streamgate``, imported as ``sg``."""
    tree = ast.parse(CHILD.read_text())
    assert any(alias.name == "streamgate" and alias.asname == "sg"
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names), f"{CHILD} does not import streamgate as sg"
    names = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id == "sg":
            names.add(".".join(reversed(parts)))
    return names


def test_every_library_name_the_benchmark_uses_resolves():
    streamgate = importlib.import_module("streamgate")
    importlib.import_module("streamgate.cli")
    names = _library_names()
    assert {"make_adapter", "run_segments", "write_trace", "parse_trace", "replay_online",
            "ONLINE", "cli.main"} <= names
    for name in sorted(names):
        obj = streamgate
        for part in name.split("."):
            assert hasattr(obj, part), f"{CHILD.name} uses sg.{name}, which streamgate lacks"
            obj = getattr(obj, part)
