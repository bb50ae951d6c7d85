"""Every attribute a streamgate module stores on ``self`` is read in the package.

An attribute that only tests read is state the package keeps for nobody: it
costs a write on every step, and every copy and reset has to reason about it.
The check goes by name: a store to ``self.x`` counts as read once any module
of the package loads an attribute ``x`` of any object.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "streamgate"


def write_only_attributes(sources: dict[str, str]) -> list[str]:
    """``"<file>:<line> self.<name>"`` for every store to ``self`` whose name no source loads."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    attributes = [(name, node) for name, tree in trees.items() for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)]
    loaded = {node.attr for _, node in attributes if isinstance(node.ctx, ast.Load)}
    return [f"{name}:{node.lineno} self.{node.attr}" for name, node in attributes
            if isinstance(node.ctx, ast.Store) and isinstance(node.value, ast.Name)
            and node.value.id == "self" and node.attr not in loaded]


def test_the_check_sees_a_write_only_attribute():
    kept = "class A:\n    def f(self):\n        self.kept = 1\n        self.dropped = 2\n"
    reader = "def g(a):\n    return a.kept\n"
    assert write_only_attributes({"a.py": kept, "b.py": reader}) == ["a.py:4 self.dropped"]


def test_every_attribute_stored_on_self_is_read():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert write_only_attributes(sources) == []
