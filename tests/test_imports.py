"""Every name a streamgate module imports is used in that module, and every
third-party module imported is declared in ``pyproject.toml``.

No linter ships with the package's test dependencies, so this is the check
that catches an import left behind when the code using it is deleted.
``__init__.py`` imports to re-export and is not checked for unused names.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "streamgate"
TESTS = ROOT / "tests"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_import():
    source = "from typing import Mapping, Sequence\nimport numpy as np\nx: Sequence = np.ones(1)\n"
    assert unused_imports(source) == ["Mapping (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def third_party_imports(paths) -> set[str]:
    """The top-level modules ``paths`` import that are neither the standard library's
    nor the project's own (``streamgate`` and the modules under ``tests/``)."""
    own = {"streamgate", *(p.stem for p in TESTS.glob("*.py"))}
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(Path(path).read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - own


def declared() -> tuple[set[str], set[str]]:
    """The runtime dependencies and the ``test`` extra, by distribution name, which for
    each of them is also its top-level module's name."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]

    def names(requirements):
        return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower() for r in requirements}

    return names(project["dependencies"]), names(project["optional-dependencies"]["test"])


def test_the_check_sees_third_party_imports(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import os.path\nimport numpy as np\nfrom scipy.linalg import expm\n"
                    "from . import sibling\nfrom streamgate import cli\nimport doubles\n")
    assert third_party_imports([path]) == {"numpy", "scipy"}


def test_runtime_dependencies_are_what_the_package_imports():
    runtime, _ = declared()
    assert third_party_imports(PACKAGE.glob("*.py")) == runtime


def test_the_tests_import_only_declared_modules():
    runtime, test = declared()
    assert third_party_imports(TESTS.glob("*.py")) <= runtime | test


@pytest.mark.parametrize("module", ["streamgate", "streamgate.cli"])
def test_importing_the_package_loads_no_scipy(module):
    # scipy is a test dependency only; a stray import would load it, and its own BLAS.
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = (f"import sys, {module}\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
