"""Every function, class or method a streamgate module defines is used beyond the unit tests.

A module-level definition counts as used once a module of the package loads
its name (as a name or as an attribute of any object), ``__init__.py`` exports
it, or the acceptance tests import it.  A method of a module-level class
other than a dunder counts as used on the same terms.  Anything else is a
helper that only the unit tests keep; it belongs in ``tests/doubles.py``, not
in the package.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "streamgate"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"


def _imported(tree: ast.AST) -> set[str]:
    return {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _definitions(tree: ast.Module):
    """(line, name, label) of each module-level function and class, labelled by
    its name, and of each non-dunder method of a module-level class, labelled
    ``<class>.<method>``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.lineno, node.name, node.name
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and not (
                        method.name.startswith("__") and method.name.endswith("__")):
                    yield method.lineno, method.name, f"{node.name}.{method.name}"


def unused_definitions(sources: dict[str, str], acceptance: str) -> list[str]:
    """``"<file>:<line> <label>"`` for every definition of ``_definitions`` whose name
    no source loads, ``__init__.py`` does not export and ``acceptance`` does not import."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = _imported(trees["__init__.py"]) | _imported(ast.parse(acceptance))
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    return [f"{name}:{line} {label}" for name, tree in trees.items()
            for line, defined, label in _definitions(tree) if defined not in used]


def test_the_check_sees_an_unused_definition():
    sources = {
        "__init__.py": "from .a import Exported\n",
        "a.py": "class Exported: ...\ndef tested(): ...\ndef called(): ...\n"
                "def unused(): ...\nclass Unused: ...\n"
                "class Worker:\n"
                "    def __init__(self): ...\n"
                "    def occupy(self): ...\n"
                "    def is_idle(self): ...\n",
        "b.py": "from . import a\nvalue = a.called()\na.Worker().occupy()\n",
    }
    acceptance = "def test_it():\n    from streamgate.a import tested\n"
    assert unused_definitions(sources, acceptance) == [
        "a.py:4 unused", "a.py:5 Unused", "a.py:9 Worker.is_idle"]


def test_every_definition_is_used_beyond_the_unit_tests():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unused_definitions(sources, ACCEPTANCE.read_text()) == []
