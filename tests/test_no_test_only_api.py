"""The package carries only what the pipeline, the CLI or the benchmark uses.

Every module-level function, class and constant in src/shapgate must be
referenced somewhere in src/shapgate or shapbench (their tests excluded),
outside its own definition. Helpers that only tests call belong in tests/.

Every field, property and method of a class in src/shapgate must likewise be
read there: as an attribute load, through getattr with a constant name, or
as a name in metrics.REPORTED, which metric_dict and the report rows read
through getattr, or as a record attribute in pipeline.MANIFEST_SCHEMA, which
the manifest writer reads through getattr. A read in the class's own __init__
or __post_init__ does not count. Reads are matched by name alone, so a dead
field that shares its name with a field another class reads goes unseen.
"""

import ast
from collections import Counter
from pathlib import Path

from shapgate import metrics, pipeline

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "shapgate"

# Fields nothing reads yet, kept for the manifest diagnostics of ROADMAP
# item 3. The set can only shrink: the guard fails when an entry is deleted
# or gains a reader, and the entry then leaves the set.
RESERVED_FOR_MANIFEST = {
    "PreparedData.n_imputed",
    "ConfusionMetrics.degenerate_precision",
    "ClusterModel.objective",
    "TrainResult.val_losses",
}


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


def _attribute_reads(node):
    """Attribute names read under node: loads, and getattr with a constant name."""
    reads = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            reads[sub.attr] += 1
        elif (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
              and sub.func.id == "getattr" and len(sub.args) > 1
              and isinstance(sub.args[1], ast.Constant) and isinstance(sub.args[1].value, str)):
            reads[sub.args[1].value] += 1
    return reads


def _class_members(cls):
    """The class's annotated fields, properties and non-dunder methods, and the
    attribute reads of its own __init__ and __post_init__."""
    members, own_reads = [], Counter()
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            members.append(stmt.target.id)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if stmt.name in ("__init__", "__post_init__"):
                own_reads += _attribute_reads(stmt)
            elif not (stmt.name.startswith("__") and stmt.name.endswith("__")):
                members.append(stmt.name)
    return members, own_reads


def test_every_class_field_has_a_non_test_reader():
    trees = _sources()
    reads = sum((_attribute_reads(tree) for tree in trees.values()), Counter())
    reads.update(metrics.REPORTED)
    reads.update(f.attr or f.key for fields in pipeline.MANIFEST_SCHEMA.values() for f in fields)
    unread = set()
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            members, own_reads = _class_members(cls)
            unread.update(f"{cls.name}.{name}" for name in members
                          if reads[name] <= own_reads[name])
    dead = sorted(unread - RESERVED_FOR_MANIFEST)
    assert not dead, f"class members in src/shapgate that no non-test code reads: {dead}"
    gone = sorted(RESERVED_FOR_MANIFEST - unread)
    assert not gone, f"reserved fields now read or deleted; drop them from the reserved set: {gone}"
