"""The benchmark's workloads.

Each workload has three parts:
  setup(seed, work_dir)     stand-in synthesis and input preparation (untimed
                            by the pass clock; counted in setup_s);
  run_pass(inputs, out_dir) the program calls of one timed pass, nothing else;
                            pass_s, the share of --seconds one pass is given,
                            fixes how many passes a run makes;
  check(inputs, result)     after the clock stops: one Outcome per operation,
                            with the digest of its output and any failed check.

Inputs come from the benchmark seed only: the stand-in files are written by
``synth.write_synthetic`` with data seed ``DATA_SEED_BASE + seed`` and every
master seed derives from ``seed``. Genuine UCI files are never read, so the
figures stay comparable between machines that have them and machines that
do not.
"""

import hashlib
import json
import math
import os
import traceback
import zlib
from dataclasses import dataclass, replace

import numpy as np

from shapgate import attribution, dataset, gbm, kernel_kmeans, pipeline, synth
from shapgate.errors import ShapgateError

DATASETS = ("heart", "diabetes", "credit")
DATA_SEED_BASE = 20240  # seed 0 reproduces the stand-ins the test suite uses
SHAP_TOLERANCE = 1e-9  # local accuracy: sum(phi) + base == GBM margin

# grid: one cell per k value, spread over the three kernel families, in
# default-grid order (kernel-major); all other settings are the defaults
GRID_CELLS = (0, 11, 17, 28, 34, 40)
# repeat: the selection that seeds 2..N of run_many inherit
REPEAT_CHOSEN = (kernel_kmeans.KernelSpec("radial", gamma=0.1), 3)
REPEAT_MAX_EPOCHS = 100
# cluster: folds of the CV split clustered per dataset in one pass
CLUSTER_FOLDS = 2


@dataclass
class Outcome:
    op: str  # stable operation id, e.g. "cell/heart/linear/k2"
    digest: str | None  # sha256 prefix of the operation's output
    error: str | None = None  # raised or failed a check


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()[:16]


def _in_unit_interval(values):
    return all(isinstance(v, float) and math.isfinite(v) and 0.0 <= v <= 1.0 for v in values)


def _failure():
    return traceback.format_exc(limit=4).strip().splitlines()[-1]


def _standin(name, seed, work_dir):
    path = os.path.join(work_dir, dataset.SCHEMAS[name].default_filename)
    return synth.write_synthetic(name, path, seed=DATA_SEED_BASE + seed)


def _name_tag(label):
    # the pipeline's content tag for a kernel label (seeds follow content)
    return zlib.crc32(label.encode("utf-8"))


def _variant_outcomes(record):
    out = []
    for variant, vr in record.variants.items():
        op = f"variant/{record.dataset}/{variant}"
        if vr.report is None:
            out.append(Outcome(op, None, vr.error or "no report"))
            continue
        rep = vr.report
        values = list(rep.metric_dict().values())
        error = None if _in_unit_interval(values) else f"metrics outside [0, 1]: {values}"
        out.append(Outcome(op, _digest(rep.metric_dict(), rep.roc_points), error))
    return out


def _report_outcome(paths, op):
    """Digest of the metrics and ROC CSV bytes; manifest and summary carry timings."""
    csvs = sorted(p for p in paths if p.endswith(".csv"))
    parts = []
    for path in csvs:
        with open(path, "rb") as fh:
            parts += [os.path.basename(path), fh.read()]
    error = None if csvs else "emit_report wrote no CSV"
    return Outcome(op, _digest(*parts), error)


# ---------------------------------------------------------------- grid

class Grid:
    """run_experiment with CV selection on: the first seed of `shapgate run`."""

    name = "grid"
    pass_s = 6.7

    def setup(self, seed, work_dir):
        grid = [pipeline.default_grid()[i] for i in GRID_CELLS]
        config = pipeline.ExperimentConfig(dataset="heart", master_seed=seed, grid=grid)
        return {"config": config, "path": _standin("heart", seed, work_dir)}

    def ops(self, inputs):
        config = inputs["config"]
        return ([f"cell/heart/{spec.label()}/k{k}" for spec, k in config.grid]
                + [f"variant/heart/{v}" for v in config.variants] + ["report/heart"])

    def run_pass(self, inputs, out_dir):
        record = pipeline.run_experiment(inputs["config"], inputs["path"])
        return record, pipeline.emit_report([record], out_dir)

    def check(self, inputs, result):
        record, paths = result
        out = []
        for cell in record.grid_cells:
            op = f"cell/heart/{cell.kernel}/k{cell.k}"
            error = cell.error
            if error is None and not _in_unit_interval(cell.fold_f1 + [cell.mean_f1]):
                error = f"fold F1 outside [0, 1]: {cell.fold_f1}"
            out.append(Outcome(op, _digest(cell.fold_f1), error))
        return out + _variant_outcomes(record) + [_report_outcome(paths, "report/heart")]


# ---------------------------------------------------------------- repeat

class Repeat:
    """run_experiment with the selection fixed, on all three datasets."""

    name = "repeat"
    pass_s = 6.7

    def setup(self, seed, work_dir):
        spec, k = REPEAT_CHOSEN
        runs = []
        for name in DATASETS:
            config = pipeline.ExperimentConfig(
                dataset=name, master_seed=seed + 1, max_epochs=REPEAT_MAX_EPOCHS)
            runs.append((config, _standin(name, seed, work_dir)))
        return {"runs": runs, "chosen": (spec, k, seed)}

    def ops(self, inputs):
        return ([f"variant/{c.dataset}/{v}" for c, _ in inputs["runs"] for v in c.variants]
                + ["report/all"])

    def run_pass(self, inputs, out_dir):
        records = [pipeline.run_experiment(config, path, chosen=inputs["chosen"])
                   for config, path in inputs["runs"]]
        return records, pipeline.emit_report(records, out_dir)

    def check(self, inputs, result):
        records, paths = result
        out = []
        for record in records:
            out += _variant_outcomes(record)
        return out + [_report_outcome(paths, "report/all")]


# ---------------------------------------------------------------- explain

class Explain:
    """prepare + fit_core + SHAP CSV export: what `shapgate explain` does."""

    name = "explain"
    pass_s = 3.3

    def setup(self, seed, work_dir):
        return {"runs": [(pipeline.ExperimentConfig(dataset=name, master_seed=seed),
                          _standin(name, seed, work_dir)) for name in DATASETS]}

    def ops(self, inputs):
        return [f"fit_core/{c.dataset}/m{c.master_seed}" for c, _ in inputs["runs"]]

    def run_pass(self, inputs, out_dir):
        out = []
        for config, path in inputs["runs"]:
            prepared = pipeline.prepare(config, path)
            core = pipeline.fit_core(prepared, config)
            for split, sm in (("train", core.shap_train), ("test", core.shap_test)):
                target = os.path.join(out_dir, f"{config.dataset}_m{config.master_seed}_shap_{split}.csv")
                with open(target, "w") as fh:
                    fh.write(attribution.shap_matrix_to_csv(sm))
            out.append((config, prepared, core))
        return out

    def check(self, inputs, result):
        out = []
        for config, prepared, core in result:
            op = f"fit_core/{config.dataset}/m{config.master_seed}"
            X = prepared.matrix.values
            error = None
            for rows, sm in ((prepared.train_ids, core.shap_train), (prepared.test_ids, core.shap_test)):
                margin = gbm.predict_margin_batch(core.ensemble, X[rows])
                residual = float(np.max(np.abs(sm.values.sum(axis=1) + sm.base_value - margin)))
                if not residual <= SHAP_TOLERANCE:
                    error = f"local accuracy residual {residual:.3g} > {SHAP_TOLERANCE}"
            digest = _digest(core.shap_train.values.tobytes(), core.shap_test.values.tobytes(),
                             core.shap_train.base_value)
            out.append(Outcome(op, digest, error))
        return out


# ---------------------------------------------------------------- cluster

class Cluster:
    """The kernel_kmeans.fit + assign_batch calls that run_cv_grid issues."""

    name = "cluster"
    pass_s = 4.0

    def setup(self, seed, work_dir):
        problems = []
        for name in DATASETS:
            config = pipeline.ExperimentConfig(dataset=name, master_seed=seed)
            prepared = pipeline.prepare(config, _standin(name, seed, work_dir))
            core = pipeline.fit_core(prepared, config)
            train_ids = prepared.train_ids
            folds = dataset.stratified_kfold(
                train_ids, prepared.matrix.labels,
                dataset.SplitSpec(n_folds=config.n_folds, seed=pipeline.child_seed(seed, 2)),
            )
            shap_rows = core.shap_train.values
            for fold_id, (fit_rows, val_rows) in enumerate(folds[:CLUSTER_FOLDS]):
                fit_vectors = shap_rows[np.searchsorted(train_ids, fit_rows)]
                val_vectors = shap_rows[np.searchsorted(train_ids, val_rows)]
                problems.append((name, fold_id, fit_vectors, val_vectors))
        return {"problems": problems, "grid": pipeline.default_grid(), "seed": seed}

    def ops(self, inputs):
        return [f"cluster/{name}/{spec.label()}/k{k}/f{fold_id}"
                for name, fold_id, _, _ in inputs["problems"] for spec, k in inputs["grid"]]

    def run_pass(self, inputs, out_dir):
        out = []
        seed = inputs["seed"]
        for name, fold_id, fit_vectors, val_vectors in inputs["problems"]:
            for spec, k in inputs["grid"]:
                cluster_seed = pipeline.child_seed(seed, 3, _name_tag(spec.label()), k, fold_id)
                model = kernel_kmeans.fit(fit_vectors, k=k, spec=spec, seed=cluster_seed)
                out.append((model, kernel_kmeans.assign_batch(model, val_vectors)))
        return out

    def check(self, inputs, result):
        out = []
        for op, (model, val_assign) in zip(self.ops(inputs), result):
            k = model.k
            error = None
            for a in (model.assignment, val_assign):
                if a.size and (a.min() < 0 or a.max() >= k):
                    error = f"assignment outside [0, {k})"
            out.append(Outcome(op, _digest(model.assignment.astype(np.int64).tobytes(),
                                           np.asarray(val_assign, dtype=np.int64).tobytes()), error))
        return out


WORKLOADS = {w.name: w for w in (Grid(), Repeat(), Explain(), Cluster())}


def timed_pass(workload, inputs, out_dir, clock):
    """The program calls of one pass. Returns (wall_s, cpu_s, result, error)."""
    wall0, cpu0 = clock()
    try:
        result, error = workload.run_pass(inputs, out_dir), None
    except (ShapgateError, ArithmeticError, ValueError, OSError):
        result, error = None, _failure()
    wall1, cpu1 = clock()
    return wall1 - wall0, cpu1 - cpu0, result, error


def outcomes(workload, inputs, result, error):
    """One Outcome per operation of the pass; a raised pass fails every operation."""
    ops = workload.ops(inputs)
    if error is not None:
        return [Outcome(op, None, error) for op in ops]
    out = workload.check(inputs, result)
    if [o.op for o in out] != ops:
        raise RuntimeError(f"{workload.name}: check produced unexpected operations")
    return out


def compare_digests(outcomes, expected, source):
    """Fail the outcomes whose digest differs from `expected` (op -> digest)."""
    return [replace(o, error=f"digest {o.digest} differs from {source} ({expected.get(o.op)})")
            if o.error is None and o.digest != expected.get(o.op) else o
            for o in outcomes]


def load_digests(path):
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh)
