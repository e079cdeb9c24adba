"""Every definition in the library has a caller in the library.

A top-level function, class, non-dunder method or module constant of
``fourval`` must be read somewhere in ``src/fourval`` outside its own
definition, or be exported from ``fourval/__init__.py``.  Helpers that
only tests use live in the tests (``test_algebra.py`` holds the oracles
and fixtures).  The scan matches by name, so a local variable that shares
a definition's name hides it.
"""

import ast
from pathlib import Path

import fourval

SRC = Path(fourval.__file__).resolve().parent

# Kept without a caller, each for a stated reason.
ALLOWED = {
    "structures.structure_from_json":
        "the interchange reader that `decide --structure` (ROADMAP.md) will call",
}


def _definitions(module, tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if (isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not (sub.name.startswith("__") and sub.name.endswith("__"))):
                        yield f"{module}.{node.name}.{sub.name}", sub.name, sub
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name) and not t.id.startswith("__"):
                    yield f"{module}.{t.id}", t.id, node


def test_every_src_definition_has_a_caller():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    exported = {alias.asname or alias.name for node in trees["__init__"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    reads: dict[str, list[tuple[str, int]]] = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id, []).append((module, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append((module, node.lineno))
    uncalled = []
    for module, tree in trees.items():
        for qualname, name, node in _definitions(module, tree):
            read = any(m != module or not node.lineno <= line <= node.end_lineno
                       for m, line in reads.get(name, ()))
            if not read and name not in exported:
                uncalled.append(qualname)
    assert set(ALLOWED) <= set(uncalled), "allowlisted but now called: " + \
        ", ".join(sorted(set(ALLOWED) - set(uncalled)))
    missing = [q for q in uncalled if q not in ALLOWED]
    assert not missing, "defined in src/fourval but never read there: " + ", ".join(missing)
