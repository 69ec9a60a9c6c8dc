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

Every defaulted parameter of a package function or method must be left out
by some call there: a default that every call overrides is one only tests
rely on, so the caller should pass the value. A call `<module>.f(...)`
through a name bound to a package module, or a bare `f(...)` of the file's
own or imported function, counts for that module's `f`; a call
`<object>.f(...)` counts for every method named f, and a call of a class
for its __init__. A dataclass field's default is a parameter of the class
call; a call of a subclass counts for the fields it inherits. A function or
class also used as a value (handed to `_map`, put in a table, given as a
default_factory; a base class is no such use) and a call with `*args` or
`**kwargs` count as leaving out every default, and a function that no call
reaches is left to the first guard.
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


def _module_names(tree, module, modules):
    """What a file's names stand for: {name: module} for each name bound to a
    package module, and {name: (module, name)} for each package function or
    class it defines or imports by name."""
    aliases, functions = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level == 1:
                source = f"shapgate.{source}".rstrip(".")
            for alias in node.names:
                bound = alias.asname or alias.name
                if source == "shapgate" and alias.name in modules:
                    aliases[bound] = alias.name
                elif source.startswith("shapgate."):
                    functions[bound] = (source.split(".", 1)[1], alias.name)
    functions.update({stmt.name: (module, stmt.name) for stmt in tree.body
                      if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))})
    return aliases, functions


def _target(node, module, aliases, functions):
    """The definition key a called or loaded name refers to: (module, name),
    or (None, name) for a method of any class."""
    if isinstance(node, ast.Name):
        return functions.get(node.id, (module, node.id))
    if isinstance(node.value, ast.Name) and node.value.id in aliases:
        return aliases[node.value.id], node.attr
    return None, node.attr


def _defaulted(fn, method):
    """(position, name) of each defaulted parameter; position counts the
    positional arguments a call passes (a method's self excluded), None for a
    keyword-only one."""
    positional = (fn.args.posonlyargs + fn.args.args)[1 if method else 0:]
    first = len(positional) - len(fn.args.defaults)
    return [(i, a.arg) for i, a in enumerate(positional) if i >= first] + [
        (None, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]


def _dataclass_kw_only(cls):
    """None unless cls is a dataclass, else whether its own fields are
    keyword-only."""
    for dec in cls.decorator_list:
        call = dec if isinstance(dec, ast.Call) else ast.Call(func=dec, args=[], keywords=[])
        if isinstance(call.func, ast.Name) and call.func.id == "dataclass":
            return any(kw.arg == "kw_only" and getattr(kw.value, "value", None) is True
                       for kw in call.keywords)
    return None


def _dataclass_defaults(trees, modules):
    """(label, name, [(key, position)]) of each defaulted dataclass field, with
    one (key, position) for its class and for each subclass that inherits it;
    position counts the fields before it that a call may pass positionally,
    None for a keyword-only one."""
    classes = {}  # key -> (ClassDef, own fields keyword-only, base keys)
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        module = path.stem
        aliases, functions = _module_names(tree, module, modules)
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            kw_only = _dataclass_kw_only(cls)
            if kw_only is not None:
                bases = [_target(b, module, aliases, functions) for b in cls.bases
                         if isinstance(b, (ast.Name, ast.Attribute))]
                classes[module, cls.name] = (cls, kw_only, bases)

    def fields(key):
        """[(owner key, name, has default, kw_only)] in __init__ order, bases first."""
        cls, kw_only, bases = classes[key]
        return [f for base in bases if base in classes for f in fields(base)] + [
            (key, stmt.target.id, stmt.value is not None, kw_only) for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]

    out = {}
    for key in classes:
        positional = [name for _, name, _, kw_only in fields(key) if not kw_only]
        for owner, name, default, kw_only in fields(key):
            if default:
                position = None if kw_only else positional.index(name)
                out.setdefault((owner, name), []).append((key, position))
    return [(f"{owner[0]}.{owner[1]}", name, keyed) for (owner, name), keyed in out.items()]


def _package_defaults(trees):
    """(label, name, [(key, position)]) of every defaulted parameter in
    src/shapgate, where key is the definition key whose calls can pass it: a
    class's __init__ is keyed by the class, the other dunders, which Python
    calls itself, are left out, and a dataclass field goes by
    _dataclass_defaults."""
    modules = {path.stem for path in trees if path.parent == PACKAGE}
    out = _dataclass_defaults(trees, modules)
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        module = path.stem
        owner = {id(fn): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for fn in _methods(cls)}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = owner.get(id(fn))
            if cls is None:
                key, label = (module, fn.name), fn.name
            elif fn.name == "__init__":
                key, label = (module, cls), cls
            elif fn.name.startswith("__") and fn.name.endswith("__"):
                continue
            else:
                key, label = (None, fn.name), f"{cls}.{fn.name}"
            out.extend((f"{module}.{label}", name, [(key, position)])
                       for position, name in _defaulted(fn, cls is not None))
    return out


def _calls_and_values(trees):
    """The calls to each definition key, and the keys also loaded as values.
    ast.walk visits a call before its callee and a class before its bases, so
    neither a callee nor a base class is a value."""
    modules = {path.stem for path in trees if path.parent == PACKAGE}
    calls, values = {}, set()
    for path, tree in trees.items():
        module = path.stem if path.parent == PACKAGE else None
        aliases, functions = _module_names(tree, module, modules)
        not_values = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                not_values.update(id(base) for base in node.bases)
            elif isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                not_values.add(id(node.func))
                calls.setdefault(_target(node.func, module, aliases, functions), []).append(node)
            elif (isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
                  and id(node) not in not_values):
                values.add(_target(node, module, aliases, functions))
    return calls, values


def _passes(call, position, name):
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
            kw.arg is None for kw in call.keywords):
        return False  # *args or **kwargs: what it passes is not known here
    return (position is not None and len(call.args) > position) or any(
        kw.arg == name for kw in call.keywords)


def test_every_parameter_default_is_used_by_a_non_test_call():
    trees = _sources()
    calls, values = _calls_and_values(trees)
    overridden = sorted(
        f"{label}({name}=...)" for label, name, keyed in _package_defaults(trees)
        if not any(key in values for key, _ in keyed) and any(calls.get(key) for key, _ in keyed)
        and all(_passes(call, position, name) for key, position in keyed
                for call in calls.get(key, ())))
    assert not overridden, ("defaults in src/shapgate that every non-test call overrides; "
                            f"pass the value and drop the default: {overridden}")
