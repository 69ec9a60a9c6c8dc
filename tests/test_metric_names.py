"""The five reported metric names are spelled out in metrics.py only.

Every other module of src/shapgate reaches them through metrics.REPORTED or
as attributes, so which metrics a report lists, and in what order, stays one
decision.
"""

import ast
from pathlib import Path

from shapgate import metrics

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "shapgate"
NAMES = ("precision", "recall", "f1", "accuracy", "auc")


def test_reported_names_are_string_literals_only_in_metrics():
    assert metrics.REPORTED == NAMES
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "metrics.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and node.value in NAMES:
                found.append(f"{path.name}:{node.lineno} {node.value!r}")
    assert not found, f"metric names spelled out outside metrics.py: {found}"
