"""The package carries only what the pipeline, the CLI or the benchmark uses.

Every module-level function, class and constant in src/shapgate must be
referenced somewhere in src/shapgate or shapbench (their tests excluded),
outside its own definition. Helpers that only tests call belong in tests/.

Every field, property and method of a class in src/shapgate must likewise be
read there: as an attribute load, through getattr with a constant name, or
as a name in metrics.REPORTED, which metric_dict and the report rows read
through getattr, or as a record attribute in pipeline.MANIFEST_SCHEMA, which
the manifest writer reads through getattr. A `self.<name>` read inside the
methods of class C reads only C's member <name>, and one in C's own __init__
or __post_init__ reads nothing. Every other read is matched by name alone:
the receiver's class is not known there.
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
    """(on_self, name) of each attribute read under node, the loads and getattr
    with a constant name; on_self tells whether the receiver is `self`."""
    reads = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            receiver, name = sub.value, sub.attr
        elif (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
              and sub.func.id == "getattr" and len(sub.args) > 1
              and isinstance(sub.args[1], ast.Constant) and isinstance(sub.args[1].value, str)):
            receiver, name = sub.args[0], sub.args[1].value
        else:
            continue
        reads.append((isinstance(receiver, ast.Name) and receiver.id == "self", name))
    return reads


def _methods(cls):
    return [stmt for stmt in cls.body if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _class_members(cls):
    """The class's annotated fields, properties and non-dunder methods."""
    members = [stmt.target.id for stmt in cls.body
               if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    return members + [m.name for m in _methods(cls)
                      if not (m.name.startswith("__") and m.name.endswith("__"))]


def _reads(trees):
    """Reads by name, whatever the receiver, and reads per (class, name) of
    `self.<name>` inside a class's methods outside __init__ and __post_init__."""
    by_name, by_class = Counter(), Counter()
    for tree in trees.values():
        by_name.update(name for on_self, name in _attribute_reads(tree) if not on_self)
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for method in _methods(cls):
                if method.name not in ("__init__", "__post_init__"):
                    by_class.update((cls.name, name) for on_self, name
                                    in _attribute_reads(method) if on_self)
    return by_name, by_class


def test_every_class_field_has_a_non_test_reader():
    trees = _sources()
    by_name, by_class = _reads(trees)
    by_name.update(metrics.REPORTED)
    by_name.update(f.attr or f.key for fields in pipeline.MANIFEST_SCHEMA.values() for f in fields)
    unread = set()
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            unread.update(f"{cls.name}.{name}" for name in _class_members(cls)
                          if not by_name[name] and not by_class[cls.name, name])
    dead = sorted(unread - RESERVED_FOR_MANIFEST)
    assert not dead, f"class members in src/shapgate that no non-test code reads: {dead}"
    gone = sorted(RESERVED_FOR_MANIFEST - unread)
    assert not gone, f"reserved fields now read or deleted; drop them from the reserved set: {gone}"
