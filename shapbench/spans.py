"""Span tracer for the traced benchmark run.

The tracer replaces shapgate's public module functions (``network.train``,
``kernel_kmeans.kernel_matrix`` and so on) with wrappers for the duration of
a ``with`` block and puts the originals back afterwards. This works because
the pipeline, ``network.train`` and ``kernel_kmeans`` look these functions up
by module attribute at call time; no file of the package is edited.

Spans are kept in memory as ``(id, parent_id, name, start, end)`` tuples and
written out by the caller at the end of the run. A layer's self time is its
span time minus the time of its direct child spans.
"""

import functools
import hashlib
import importlib
import json
import os
import time
from collections import defaultdict

import numpy as np

# public calls timed from outside, per layer (module)
TRACED = {
    "dataset": ("load_dataset", "handle_missing", "fit_transform"),
    "gbm": ("fit", "predict_margin_batch"),
    "attribution": ("shap_matrix", "shap_matrix_to_csv"),
    "kernel_kmeans": ("fit", "assign_batch", "kernel_matrix"),
    "network": ("train", "loss_and_grads", "predict"),
    "metrics": ("evaluate",),
    "pipeline": ("prepare", "fit_core", "run_cv_grid", "run_final",
                 "run_experiment", "emit_report"),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_train(counts, args, kwargs, out):
    config = _arg(args, kwargs, 4, "config")
    epochs = len(out.train_losses)
    counts["network.epochs"] += epochs
    counts["network.useful_epochs"] += out.best_epoch + 1
    counts["network.patience_stops"] += epochs < config.max_epochs


def _count_kernel_matrix(counts, args, kwargs, out):
    spec = _arg(args, kwargs, 0, "spec")
    A = np.ascontiguousarray(_arg(args, kwargs, 1, "A"), dtype=np.float64)
    B = args[2] if len(args) > 2 else kwargs.get("B")
    key = hashlib.blake2b(spec.label().encode(), digest_size=16)
    key.update(A.tobytes())
    if B is not None:
        key.update(b"|" + np.ascontiguousarray(B, dtype=np.float64).tobytes())
    counts["kernel_kmeans.kernel_matrix_keys"].add(key.digest())
    counts["kernel_kmeans.kernel_matrix_small_calls"] += out.shape == (1, 1)
    counts["kernel_kmeans.kernel_matrix_elements"] += out.size


def _count_gbm_fit(counts, args, kwargs, out):
    counts["gbm.fit_rows"] += len(_arg(args, kwargs, 0, "X"))
    counts["gbm.trees"] += out.n_trees


def _count_shap_matrix(counts, args, kwargs, out):
    counts["attribution.rows"] += out.values.shape[0]


def _count_csv(counts, args, kwargs, out):
    counts["attribution.csv_bytes"] += len(out.encode("utf-8"))


def _count_grid(counts, args, kwargs, out):
    counts["pipeline.grid_cells"] += len(out.cells)
    counts["pipeline.grid_cells_failed"] += sum(c.error is not None for c in out.cells)


def _count_load(counts, args, kwargs, out):
    counts["dataset.rows"] += out.n_rows


COUNTERS = {
    "network.train": _count_train,
    "kernel_kmeans.kernel_matrix": _count_kernel_matrix,
    "gbm.fit": _count_gbm_fit,
    "attribution.shap_matrix": _count_shap_matrix,
    "attribution.shap_matrix_to_csv": _count_csv,
    "pipeline.run_cv_grid": _count_grid,
    "dataset.load_dataset": _count_load,
}


class Tracer:
    """Wraps the functions in TRACED while installed; records spans when active."""

    def __init__(self):
        self.spans = []
        self.counts = None
        self.active = False
        self._stack = []
        self._next_id = 0
        self._saved = []

    def __enter__(self):
        for layer, names in TRACED.items():
            module = importlib.import_module(f"shapgate.{layer}")
            for name in names:
                original = getattr(module, name)
                self._saved.append((module, name, original))
                setattr(module, name, self._wrap(f"{layer}.{name}", original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)
        return False

    def _wrap(self, span_name, fn):
        counter = COUNTERS.get(span_name)

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((span_id, parent, span_name, start, end))
            if counter is not None:
                counter(self.counts, args, kwargs, out)
            return out

        return functools.wraps(fn)(wrapper)

    def begin_pass(self):
        """Start recording one pass; returns the index of its first span."""
        self.counts = defaultdict(int)
        self.counts["kernel_kmeans.kernel_matrix_keys"] = set()
        self.active = True
        return len(self.spans)

    def end_pass(self, first_span):
        """Stop recording; per-name busy time, self time and calls for the pass."""
        self.active = False
        spans = self.spans[first_span:]
        child_time = defaultdict(float)
        for _, parent, _, start, end in spans:
            child_time[parent] += end - start
        busy = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        for span_id, _, name, start, end in spans:
            busy[name] += end - start
            self_time[name] += end - start - child_time[span_id]
            calls[name] += 1
        return PassProfile(busy, self_time, calls, self.counts)


def write(path, spans, origin):
    """Write spans as JSON lines, times in seconds from `origin`."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        for span_id, parent, name, start, end in spans:
            fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                 "start_s": start - origin, "end_s": end - origin}) + "\n")


class PassProfile:
    def __init__(self, busy, self_time, calls, counts):
        self.busy = busy
        self.self_time = self_time
        self.calls = calls
        self.counts = counts

    def layer_metrics(self):
        """The per-layer metrics of one traced pass, by metric name."""
        b, s, n, c = self.busy, self.self_time, self.calls, self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        km_calls = n["kernel_kmeans.kernel_matrix"]
        return {
            "network.train_s": b["network.train"],
            "network.train_calls": n["network.train"],
            "network.train.self_s": s["network.train"],
            "network.loss_and_grads_s": b["network.loss_and_grads"],
            "network.steps": n["network.loss_and_grads"],
            "network.steps_per_s": ratio(n["network.loss_and_grads"], b["network.train"]),
            "network.epochs": c["network.epochs"],
            "network.useful_epoch_frac": ratio(c["network.useful_epochs"], c["network.epochs"]),
            "network.patience_stop_frac": ratio(c["network.patience_stops"], n["network.train"]),
            "network.predict_s": b["network.predict"],
            "kernel_kmeans.fit_s": b["kernel_kmeans.fit"],
            "kernel_kmeans.fit_calls": n["kernel_kmeans.fit"],
            "kernel_kmeans.fit.self_s": s["kernel_kmeans.fit"],
            "kernel_kmeans.assign_batch_s": b["kernel_kmeans.assign_batch"],
            "kernel_kmeans.assign_batch_calls": n["kernel_kmeans.assign_batch"],
            "kernel_kmeans.kernel_matrix_s": b["kernel_kmeans.kernel_matrix"],
            "kernel_kmeans.kernel_matrix_calls": km_calls,
            "kernel_kmeans.kernel_matrix_small_calls": c["kernel_kmeans.kernel_matrix_small_calls"],
            "kernel_kmeans.kernel_matrix_elements": c["kernel_kmeans.kernel_matrix_elements"],
            "kernel_kmeans.kernel_matrix_distinct_frac": ratio(
                len(c["kernel_kmeans.kernel_matrix_keys"]), km_calls),
            "gbm.fit_s": b["gbm.fit"],
            "gbm.fit_calls": n["gbm.fit"],
            "gbm.fit_rows": c["gbm.fit_rows"],
            "gbm.trees": c["gbm.trees"],
            "gbm.predict_s": b["gbm.predict_margin_batch"],
            "attribution.shap_matrix_s": b["attribution.shap_matrix"],
            "attribution.shap_matrix_calls": n["attribution.shap_matrix"],
            "attribution.rows": c["attribution.rows"],
            "attribution.rows_per_s": ratio(c["attribution.rows"], b["attribution.shap_matrix"]),
            "attribution.to_csv_s": b["attribution.shap_matrix_to_csv"],
            "attribution.csv_bytes": c["attribution.csv_bytes"],
            "pipeline.prepare_s": b["pipeline.prepare"],
            "pipeline.fit_core_s": b["pipeline.fit_core"],
            "pipeline.run_cv_grid_s": b["pipeline.run_cv_grid"],
            "pipeline.run_cv_grid.self_s": s["pipeline.run_cv_grid"],
            "pipeline.run_final_s": b["pipeline.run_final"],
            "pipeline.run_final.self_s": s["pipeline.run_final"],
            "pipeline.emit_report_s": b["pipeline.emit_report"],
            "pipeline.grid_cells": c["pipeline.grid_cells"],
            "pipeline.grid_cells_failed": c["pipeline.grid_cells_failed"],
            "dataset.load_s": b["dataset.load_dataset"],
            "dataset.fit_transform_s": b["dataset.fit_transform"],
            "dataset.rows": c["dataset.rows"],
            "metrics.evaluate_s": b["metrics.evaluate"],
            "metrics.evaluate_calls": n["metrics.evaluate"],
        }


# metrics of a traced pass that are counts: identical on every pass of a run
COUNT_METRICS = (
    "network.train_calls", "network.steps", "network.epochs",
    "kernel_kmeans.fit_calls", "kernel_kmeans.assign_batch_calls",
    "kernel_kmeans.kernel_matrix_calls", "kernel_kmeans.kernel_matrix_small_calls",
    "kernel_kmeans.kernel_matrix_elements", "gbm.fit_calls", "gbm.fit_rows",
    "gbm.trees", "attribution.shap_matrix_calls", "attribution.rows",
    "attribution.csv_bytes", "pipeline.grid_cells", "pipeline.grid_cells_failed",
    "dataset.rows", "metrics.evaluate_calls",
)
