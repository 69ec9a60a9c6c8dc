"""The traced benchmark run (shapbench/spans.py) wraps shapgate functions by
module attribute name; a renamed or deleted function must fail here rather
than in the benchmark run."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "shapbench" / "spans.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("shapbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{layer}.{name}"
        for layer, names in spans.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"shapgate.{layer}"), name, None))
    ]
    assert spans.TRACED and not missing, f"traced names missing from shapgate: {missing}"
