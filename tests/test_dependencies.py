"""The declared runtime dependencies are exactly what the package imports.

Every third-party top-level module imported anywhere under src/, lazily
inside a function too, must be listed in pyproject.toml's [project]
dependencies, and every listed dependency must be imported.  The distribution
names of these dependencies are their module names.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def _imported_modules() -> set[str]:
    names = set()
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_declared_dependencies_are_the_imported_modules() -> None:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[\w.-]+", req).group(0).lower() for req in project["dependencies"]}
    third_party = _imported_modules() - set(sys.stdlib_module_names) - {"nkverify"}
    assert declared == third_party
