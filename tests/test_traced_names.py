"""The benchmark (shapbench/) calls shapgate by module attribute name, and
its traced run (shapbench/spans.py) wraps shapgate functions by that name;
a renamed or deleted function, or a call that stops going through the module
attribute, must fail here rather than break or skew the benchmark."""

import ast
import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np

from oracles import net_config, plain_batch
from shapgate import kernel_kmeans, network

SHAPBENCH = Path(__file__).resolve().parent.parent / "shapbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"shapbench_{name}", SHAPBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    spans = load("spans")
    missing = [
        f"{layer}.{name}"
        for layer, names in spans.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"shapgate.{layer}"), name, None))
    ]
    assert spans.TRACED and not missing, f"traced names missing from shapgate: {missing}"


def test_every_shapgate_attribute_the_workloads_read_exists():
    """Each `<module>.<name>` that shapbench/workloads.py reads through a name
    it imported from shapgate: the workloads call pipeline.child_seed and
    the stage functions by these names."""
    workloads = load("workloads")
    tree = ast.parse((SHAPBENCH / "workloads.py").read_text(encoding="utf-8"))
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "shapgate"
               for alias in node.names}
    reads = {(node.value.id, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in modules}
    missing = sorted(f"{module}.{name}" for module, name in reads
                     if not hasattr(getattr(workloads, module), name))
    assert modules and reads and not missing, f"read by the workloads, missing: {missing}"


def counting(monkeypatch, module, name, calls):
    """Replace module.name with a wrapper that appends each call's name to `calls`."""
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_traced_counts_come_from_module_attribute_calls(monkeypatch):
    """The tracer's network.steps counts network.loss_and_grads calls and its
    kernel_matrix_calls counts kernel_kmeans.kernel_matrix calls, each looked
    up by module attribute: train must make one call per step, and fit and
    assign_batch one kernel_matrix call each."""
    calls = []
    counting(monkeypatch, network, "loss_and_grads", calls)
    counting(monkeypatch, kernel_kmeans, "kernel_matrix", calls)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(41, 3))
    y = (X[:, 0] > 0).astype(float)
    y[:2] = (0.0, 1.0)
    batch = plain_batch(X)
    config = net_config(batch_size=8, max_epochs=4, seed=1)
    result = network.train(batch, y, batch, y, config)
    assert calls == ["loss_and_grads"] * len(result.train_losses) * math.ceil(41 / 8)
    calls.clear()
    model = kernel_kmeans.fit(X, 3, kernel_kmeans.KernelSpec("radial", gamma=0.5), seed=2)
    assert calls == ["kernel_matrix"]
    kernel_kmeans.assign_batch(model, X[:7])
    assert calls == ["kernel_matrix"] * 2
