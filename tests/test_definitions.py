"""Every function, class, method or constant a streamgate module defines is used
beyond the unit tests.

A module-level definition counts as used once a module of the package loads
its name (as a name or as an attribute of any object), ``__init__.py`` exports
it, or the acceptance tests import it.  A method of a module-level class
other than a dunder counts as used on the same terms.  Anything else is a
helper that only the unit tests keep; it belongs in ``tests/doubles.py``, not
in the package.  A module-level constant, any name a module-level assignment
binds other than a dunder, counts as used once a module of the package loads
it or the package exports it: from ``__init__.py`` or in a module's
``__all__``.  One that nothing loads is a leftover of deleted code.
"""

from __future__ import annotations

import ast
from pathlib import Path

from streamgate._checks import _RANGES

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


def _constants(tree: ast.Module):
    """(line, name) of each non-dunder name a module-level assignment binds."""
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for name in (n for target in targets for n in ast.walk(target)):
            if isinstance(name, ast.Name) and not name.id.startswith("__"):
                yield node.lineno, name.id


def _exported(trees: dict[str, ast.Module]) -> set[str]:
    """The names ``__init__.py`` imports and the strings of every module's ``__all__``."""
    names = _imported(trees["__init__.py"])
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                names |= {item.value for item in ast.walk(node.value)
                          if isinstance(item, ast.Constant) and isinstance(item.value, str)}
    return names


def _loaded(trees: dict[str, ast.Module]) -> set[str]:
    """Every name any tree loads, as a name or as an attribute."""
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return loaded


def unused_definitions(sources: dict[str, str], acceptance: str) -> list[str]:
    """``"<file>:<line> <label>"`` for every definition of ``_definitions`` whose name
    no source loads, ``__init__.py`` does not export and ``acceptance`` does not import."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = _imported(trees["__init__.py"]) | _imported(ast.parse(acceptance)) | _loaded(trees)
    return [f"{name}:{line} {label}" for name, tree in trees.items()
            for line, defined, label in _definitions(tree) if defined not in used]


def unused_constants(sources: dict[str, str]) -> list[str]:
    """``"<file>:<line> <name>"`` for every constant of ``_constants`` that no source
    loads and the package does not export."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = _exported(trees) | _loaded(trees)
    return [f"{name}:{line} {constant}" for name, tree in trees.items()
            for line, constant in _constants(tree) if constant not in used]


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


def test_the_check_sees_an_unused_constant():
    sources = {
        "__init__.py": "from .a import EXPORTED\n__version__ = '1'\n",
        "a.py": "EXPORTED = 1\nLOADED = 2\n_LEFTOVER = (0, 6)\n"
                "LISTED: int = 3\nFIRST, _SECOND = 4, 5\n"
                "__all__ = ['LISTED']\n"
                "def f():\n    return LOADED + FIRST\n",
        "b.py": "from . import a\nUNUSED = a.LOADED\n",
    }
    assert unused_constants(sources) == ["a.py:3 _LEFTOVER", "a.py:5 _SECOND", "b.py:2 UNUSED"]


def test_every_constant_is_loaded_or_exported():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unused_constants(sources) == []


def _is_call_to(node: ast.AST, name: str) -> bool:
    return isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id == name
        or isinstance(node.func, ast.Attribute) and node.func.attr == name)


def _unpacks_into_underscore(target: ast.AST) -> bool:
    return isinstance(target, ast.Tuple) and any(
        isinstance(element, ast.Name) and element.id == "_" for element in target.elts)


def discarded_probabilities(sources: dict[str, str]) -> list[str]:
    """``"<file>:<line>"`` for every ``predict`` call whose probabilities are thrown
    away, as ``predict(...)[0]`` or ``y, _ = predict(...)`` do: a label read takes
    ``forward(...).labels``, which need not finish the softmax."""
    found = []
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            discarded = (isinstance(node, ast.Subscript) and _is_call_to(node.value, "predict")
                         or isinstance(node, ast.Assign) and _is_call_to(node.value, "predict")
                         and any(_unpacks_into_underscore(t) for t in node.targets))
            if discarded:
                found.append((name, node.lineno))
    return [f"{name}:{line}" for name, line in sorted(found)]


def test_the_check_sees_discarded_probabilities():
    sources = {
        "a.py": "y = predict(p, x)[0]\n"
                "y, _ = predict(p, x)\n"
                "labels, probs = predict(p, x)\n"
                "y = model.predict(p, x)[0]\n"
                "seconds = timed(predict, p, x)[1]\n"
                "(y, _), z = predict(p, x), 1\n",
    }
    assert discarded_probabilities(sources) == ["a.py:1", "a.py:2", "a.py:4"]


def test_no_module_throws_away_the_probabilities_of_predict():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert discarded_probabilities(sources) == []


def unknown_rules(sources: dict[str, str]) -> list[str]:
    """``"<file>:<line>"`` for every ``check_real`` call whose rule, passed third or as
    ``rule=``, is not a string literal that names a range of ``_checks._RANGES``: a
    misspelt rule would surface only as a bare ``KeyError`` on a bad value."""
    found = []
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not _is_call_to(node, "check_real"):
                continue
            rules = node.args[2:] + [k.value for k in node.keywords if k.arg == "rule"]
            if any(not (isinstance(rule, ast.Constant) and rule.value in _RANGES)
                   for rule in rules):
                found.append((name, node.lineno))
    return [f"{name}:{line}" for name, line in sorted(found)]


def test_the_check_sees_a_rule_that_names_no_range():
    sources = {
        "a.py": "check_real(x, 'x')\n"
                "check_real(x, 'x', 'positive')\n"
                "check_real(x, 'x', 'postive')\n"
                "stream.check_real(x, 'x', rule='in [0, 1]')\n"
                "stream.check_real(x, 'x', rule=RULE)\n"
                "check_real(x, 'x', None)\n",
    }
    assert unknown_rules(sources) == ["a.py:3", "a.py:5", "a.py:6"]


def test_every_check_real_rule_names_a_range():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unknown_rules(sources) == []


def busy_window_writes(sources: dict[str, str]) -> list[str]:
    """``"<file>:<line>"`` for every write of ``busy_until``, as a name, an attribute or
    through ``setattr``, outside the class ``Worker`` of ``clock.py``: the busy-window
    rule that simulation and replay share is written there alone."""
    found = []
    for name, source in sources.items():
        tree = ast.parse(source)
        inside = {id(node) for cls in tree.body if name == "clock.py"
                  and isinstance(cls, ast.ClassDef) and cls.name == "Worker"
                  for node in ast.walk(cls)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.NamedExpr)):
                targets = [node.target]
            elif _is_call_to(node, "setattr") and len(node.args) > 1:
                targets = [node.args[1]]
            else:
                continue
            if id(node) not in inside and any(
                    isinstance(n, ast.Name) and n.id == "busy_until"
                    or isinstance(n, ast.Attribute) and n.attr == "busy_until"
                    or isinstance(n, ast.Constant) and n.value == "busy_until"
                    for target in targets for n in ast.walk(target)):
                found.append((name, node.lineno))
    return [f"{name}:{line}" for name, line in sorted(found)]


def test_the_check_sees_a_busy_window_written_outside_the_worker():
    worker = ("class Worker:\n"
              "    def start(self, t, c):\n"
              "        self.busy_until = t + c\n")
    sources = {
        "clock.py": worker + "def skip(w):\n    w.busy_until += 1\n",
        "trace.py": "worker.busy_until = t + c\n"
                    "t = worker.busy_until\n"
                    "while (busy_until := t + c) < n: pass\n"
                    "setattr(worker, 'busy_until', 3)\n"
                    "w.busy_until: int = 0\n",
        "protocol.py": worker,
    }
    assert busy_window_writes(sources) == [
        "clock.py:5", "protocol.py:3", "trace.py:1", "trace.py:3", "trace.py:4", "trace.py:5"]


def test_only_the_worker_writes_the_busy_window():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert busy_window_writes(sources) == []


def misplaced_rules(sources: dict[str, str]) -> list[str]:
    """``"<file>:<line>"`` for every import of ``numbers`` outside ``_checks.py`` and
    every relative import in ``_checks.py``: the input rules live in that one leaf
    module, which every module can import, so no other module tests a number's type."""
    found = []
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if name == "_checks.py":
                misplaced = isinstance(node, ast.ImportFrom) and node.level > 0
            else:
                misplaced = (isinstance(node, ast.Import)
                             and any(alias.name == "numbers" for alias in node.names)
                             or isinstance(node, ast.ImportFrom) and node.level == 0
                             and node.module == "numbers")
            if misplaced:
                found.append((name, node.lineno))
    return [f"{name}:{line}" for name, line in sorted(found)]


def test_the_check_sees_a_rule_outside_the_leaf_module():
    sources = {
        "_checks.py": "import math\nimport numbers\nfrom . import model\n"
                      "from .stream import Batch\nfrom numbers import Real\n",
        "model.py": "import numbers\nimport numpy as np, numbers\n"
                    "from numbers import Real\nfrom ._checks import check_real\n"
                    "from .numbers import x\nimport numbersx\n",
    }
    assert misplaced_rules(sources) == [
        "_checks.py:3", "_checks.py:4", "model.py:1", "model.py:2", "model.py:3"]


def test_only_the_leaf_module_imports_numbers():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert "_checks.py" in sources
    assert misplaced_rules(sources) == []


def discarded_checks(sources: dict[str, str]) -> list[str]:
    """``"<file>:<line>"`` for every ``check_real`` call used as a bare statement: the call
    returns the float that runs, so a caller that throws it away runs a value other than
    the one whose range was tested, or converts it a second time."""
    found = []
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Expr) and _is_call_to(node.value, "check_real"):
                found.append((name, node.lineno))
    return [f"{name}:{line}" for name, line in sorted(found)]


def test_the_check_sees_a_check_real_whose_value_is_thrown_away():
    sources = {
        "a.py": "check_real(x, 'x', 'positive')\n"
                "x = check_real(x, 'x')\n"
                "object.__setattr__(self, 'x', check_real(self.x, 'x'))\n"
                "def f(x):\n    return check_real(x, 'x')\n"
                "_checks.check_real(x, 'x')\n",
    }
    assert discarded_checks(sources) == ["a.py:1", "a.py:6"]


def test_every_check_real_value_is_the_one_that_runs():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert discarded_checks(sources) == []
