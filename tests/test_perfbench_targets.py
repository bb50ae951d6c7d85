"""The benchmark's span targets still name streamgate functions.

``perfbench/spans.py`` wraps each of its ``TARGETS`` by name; a target that no
longer resolves leaves its spans empty.  The file is read as text, so this
test neither imports nor writes anything under ``perfbench/``.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
