"""numpy stays the package's only runtime dependency.

Every import in src/shapgate must name a standard-library module, numpy, or
the package itself (relative imports included).
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "shapgate"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "shapgate"}


def _imported_modules(tree):
    """Top-level names of the modules a parsed file imports; relative ones excluded."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_stdlib_and_numpy():
    files = sorted(PACKAGE.glob("*.py"))
    assert files, f"no sources under {PACKAGE}"
    outside = [
        f"{path.name}:{lineno} {module}"
        for path in files
        for lineno, module in _imported_modules(ast.parse(path.read_text(encoding="utf-8")))
        if module not in ALLOWED
    ]
    assert not outside, f"imports outside the standard library and numpy: {outside}"
