"""Every name that src/ defines is used by the engine, the benchmark or the
scripts: a definition or module-level constant reached only by tests
belongs in tests/.

A name counts where it appears in code: as a name, or as a word of a string
literal, since the benchmark's tracer names its targets in strings.  A
comment or a docstring that mentions a name does not use it.  A class field
counts as its bare name, so a field whose name appears only where it is
declared is unused."""

import ast
import io
import re
import tokenize
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
    "BRACKET": "built with CONNECTION, which the Koszul formula derives from it; only "
    "the structure tests read it, to check CONNECTION against the brackets",
    "METRIC": "built with CONNECTION, which the Koszul formula derives from it; only "
    "the structure tests read it, to check the left-invariant basis against it",
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
    method under src/, dunder methods aside: Python calls those itself; of
    every name a module-level assignment binds, dunder names aside too; and
    of every annotated class field, the fields of a NamedTuple or a
    dataclass among them."""
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
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                        name = member.target.id
                        yield f"{node.name}.{name}", name, path, member.lineno
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            cls = owner.get(id(node))
            qual = f"{cls}.{node.name}" if cls else node.name
            yield qual, node.name, path, node.lineno


def _code_words(text: str) -> list[tuple[int, str]]:
    """(line, word) of every word in the code of a module: its names and the
    words of its string literals, each at the line its token starts on, but
    none of a comment or a docstring."""
    docstrings = [
        range(node.body[0].lineno, node.body[0].end_lineno + 1)
        for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node, clean=False) is not None
    ]
    words = []
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        line = tok.start[0]
        if tok.type == tokenize.COMMENT or (
            tok.type == tokenize.STRING and any(line in span for span in docstrings)
        ):
            continue
        words.extend((line, word) for word in re.findall(r"\w+", tok.string))
    return words


def test_every_src_definition_is_used_outside_tests():
    code = {path: _code_words(path.read_text())
            for base in USERS for path in sorted(base.rglob("*.py"))}
    words = Counter(word for found in code.values() for _, word in found)
    unused = [
        qual
        for qual, name, path, line in _definitions()
        if words[name] == sum(1 for at, word in code[path] if (at, word) == (line, name))
    ]
    assert sorted(unused) == sorted(ALLOWED)
