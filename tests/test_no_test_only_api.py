"""The package carries only what the pipeline, the CLI or the benchmark uses.

Every module-level function, class and constant in src/shapgate must be
referenced somewhere in src/shapgate or shapbench (their tests excluded),
outside its own definition. Helpers that only tests call belong in tests/.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "shapgate"


def _sources():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "shapbench").glob("*.py"))
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in files}


def _defined_names(stmt):
    """Names a top-level statement defines: a def, a class or an assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = []
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)]


def _used_names(stmt):
    """Names a statement reads, as bare names, attributes or imports."""
    used = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_package_definition_has_a_non_test_caller():
    trees = _sources()
    statements = [(path, stmt) for path, tree in trees.items() for stmt in tree.body]
    uses = [(path, stmt, _used_names(stmt)) for path, stmt in statements]
    unused = []
    for path, stmt in statements:
        if path.parent != PACKAGE:
            continue
        for name in _defined_names(stmt):
            if name.startswith("__") and name.endswith("__"):
                continue
            if not any(name in names for _, other, names in uses if other is not stmt):
                unused.append(f"{path.name}:{stmt.lineno} {name}")
    assert not unused, f"defined in src/shapgate but used only by tests: {unused}"
