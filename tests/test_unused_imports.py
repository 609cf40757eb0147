"""Every name a module of src/, tests/ or scripts/ imports is read there.

The repository runs no linter, so this is its unused-import check.  A name
counts as read where it appears as a name in the module's code, its
annotations included; `from __future__` imports are exempt.  perfbench/ is
left out: the benchmark is versioned apart from the engine.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src", "tests", "scripts") for p in (ROOT / d).rglob("*.py"))


def _unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


def test_the_scan_finds_an_unused_import() -> None:
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from a.b import c as d, e\n"
        "print(sys, e)\n"
    )
    assert _unused_imports(source) == [(2, "os"), (3, "d")]


def test_every_import_is_read() -> None:
    unused = {str(p.relative_to(ROOT)): _unused_imports(p.read_text()) for p in MODULES}
    assert {path: found for path, found in unused.items() if found} == {}
