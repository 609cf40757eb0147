"""Every name that src/ defines is used by the engine, the benchmark or the
scripts: a definition or module-level constant reached only by tests
belongs in tests/."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
USERS = (SRC, ROOT / "perfbench", ROOT / "scripts")

#: Definitions kept although only tests reach them, each with its reason.
ALLOWED = {
    "covariant_derivative_along": "serves only the chart tests; moves to tests/ with "
    "the chart layer once the benchmark stops tracing it",
    "Chart.coords": "serves only the chart tests; moves to tests/ with the chart layer "
    "once the benchmark stops tracing it",
}


def _assigned(node) -> list:
    """The names a module-level assignment binds."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _definitions():
    """(qualified name, bare name, file, line) of every function, class and
    method under src/, dunder methods aside: Python calls those itself, and
    of every name a module-level assignment binds, dunder names aside too."""
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            for name in _assigned(node):
                if not (name.startswith("__") and name.endswith("__")):
                    yield name, name, path, node.lineno
        owner = {
            id(member): node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for member in node.body
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            cls = owner.get(id(node))
            qual = f"{cls}.{node.name}" if cls else node.name
            yield qual, node.name, path, node.lineno


def test_every_src_definition_is_used_outside_tests():
    texts = {path: path.read_text() for base in USERS for path in sorted(base.rglob("*.py"))}
    words = Counter(re.findall(r"\w+", "\n".join(texts.values())))
    unused = [
        qual
        for qual, name, path, line in _definitions()
        if words[name] == re.findall(r"\w+", texts[path].splitlines()[line - 1]).count(name)
    ]
    assert sorted(unused) == sorted(ALLOWED)
