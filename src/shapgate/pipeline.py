"""End-to-end experiment orchestration.

Per dataset and master seed: split a stratified holdout, fit the scaler and
the boosted ensemble on training rows only, compute attribution vectors for
all rows from that one fit, select clustering hyperparameters by five-fold
cross-validation on the training split (mean weighted F1 of the full
variant), then refit clusters on all training attributions, train every
variant on the training split, and evaluate once on the untouched holdout.

Holdout hygiene: test rows never reach scaler fitting, ensemble fitting, the
attribution background, cluster fitting, or CV selection. The tests enforce
this with a tripwire that corrupts test-row features and asserts that every
fitted artifact is unchanged.

Variants differ only in what the one network is fed (VARIANT_WIRING below
is the one place that decides it; the network reads its wiring from the
batch):
  full              gate fed by the row's attributions + cluster one-hot
  simple_nn         plain MLP on raw features (no gate, no clusters)
  random_attention  gate fed by one fixed noise vector, drawn from the
                    variant's network seed and broadcast to every row, +
                    cluster one-hot
  no_cluster_labels attribution-fed gate, no cluster block
"""

import contextlib
import hashlib
import json
import math
import os
import time
import zlib
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from . import attribution, dataset, gbm, kernel_kmeans, metrics, network
from .errors import DataError, ShapgateError, UsageError

# network wiring per variant: (gate source, cluster one-hot block), where the
# gate source is "shap" (attribution rows), "noise" (fixed seeded vector) or
# "none" (no gate)
VARIANT_WIRING = {
    "full": ("shap", True),
    "simple_nn": ("none", False),
    "random_attention": ("noise", True),
    "no_cluster_labels": ("shap", False),
}
VARIANTS = tuple(VARIANT_WIRING)

# external reference values the experiments are compared against (weighted F1
# of the full variant); deviations beyond the tolerance are reported in the
# manifest rather than hidden
REFERENCE_F1 = {"diabetes": 0.98, "heart": 0.80, "credit": 0.86}
REFERENCE_TOLERANCE = 0.07


def default_grid():
    """Kernel-major grid order; selection ties resolve to the earliest cell."""
    kernels = [
        kernel_kmeans.KernelSpec("linear"),
        kernel_kmeans.KernelSpec("polynomial", degree=2, coef0=0.0),
        kernel_kmeans.KernelSpec("polynomial", degree=2, coef0=1.0),
        kernel_kmeans.KernelSpec("polynomial", degree=3, coef0=0.0),
        kernel_kmeans.KernelSpec("polynomial", degree=3, coef0=1.0),
        kernel_kmeans.KernelSpec("radial", gamma=0.01),
        kernel_kmeans.KernelSpec("radial", gamma=0.1),
        kernel_kmeans.KernelSpec("radial", gamma=1.0),
        kernel_kmeans.KernelSpec("radial", gamma=10.0),
    ]
    return [(spec, k) for spec in kernels for k in (2, 3, 4, 5, 6)]


@dataclass
class ExperimentConfig:
    dataset: str
    master_seed: int = 0
    n_seeds: int = 10
    holdout_fraction: float = 0.2
    n_folds: int = 5
    gbm_config: gbm.GbmConfig = field(default_factory=gbm.GbmConfig)
    grid: list = field(default_factory=default_grid)
    step_size: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 200
    patience: int = 20
    variants: tuple = VARIANTS

    def __post_init__(self):
        if self.dataset not in dataset.SCHEMAS:
            raise UsageError(f"unknown dataset {self.dataset!r}")
        # integer settings must be integers: a float would be truncated or
        # crash mid-run, and a bool is no number
        counts = [("master_seed", self.master_seed), ("n_seeds", self.n_seeds),
                  ("n_folds", self.n_folds), ("batch_size", self.batch_size),
                  ("max_epochs", self.max_epochs), ("patience", self.patience)]
        counts += [(f"gbm {name}", getattr(self.gbm_config, name))
                   for name in ("n_trees", "max_depth", "min_samples_leaf")]
        counts += [("grid k", k) for _, k in self.grid]
        for name, value in counts:
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise UsageError(f"{name} must be an integer, got {value!r}")
        if self.master_seed < 0:
            raise UsageError("master_seed must be >= 0")
        if self.n_seeds < 1:
            raise UsageError("n_seeds must be >= 1")
        unknown = [v for v in self.variants if v not in VARIANT_WIRING]
        if unknown:
            raise UsageError(f"unknown variants: {unknown}")
        # an empty list trains nothing, and a repeated name trains twice to
        # keep one result
        if not self.variants or len(set(self.variants)) != len(self.variants):
            raise UsageError(f"variants must name each variant at most once and not be empty, "
                             f"got {list(self.variants)}")
        if not self.grid:
            raise UsageError("grid must hold at least one [kernel_label, k] cell")
        # gbm.fit accepts zero trees, but their attributions are all zero, so
        # every gate would be a constant one half
        if self.gbm_config.n_trees < 1:
            raise UsageError("gbm n_trees must be >= 1 for an experiment")
        # build the settings the fits use now, so a bad value stops the run
        # before any fitting rather than failing every grid cell later
        try:
            self.net_config(seed=0)
            dataset.SplitSpec(holdout_fraction=self.holdout_fraction, n_folds=self.n_folds)
        except DataError as e:
            raise UsageError(str(e)) from e

    def net_config(self, seed):
        return network.NetConfig(
            step_size=self.step_size, batch_size=self.batch_size,
            max_epochs=self.max_epochs, patience=self.patience, seed=seed,
        )


def child_seed(master, *tags):
    """Deterministic derived integer seed."""
    return int(np.random.default_rng([master, *tags]).integers(2**63))


def _name_tag(name):
    """Stable integer tag for a string, so seeds follow content, not position.

    Grid cells with identical (kernel, k) must produce identical results
    wherever they sit in the grid, and a variant keeps its seed when the
    variant subset changes.
    """
    return zlib.crc32(name.encode("utf-8"))


@dataclass
class PreparedData:
    dataset: str
    matrix: dataset.FeatureMatrix
    train_ids: np.ndarray
    test_ids: np.ndarray
    n_imputed: int


@dataclass
class FittedCore:
    ensemble: gbm.TreeEnsemble
    shap_train: attribution.ShapMatrix  # aligned with train_ids order
    shap_test: attribution.ShapMatrix  # aligned with test_ids order


def prepare(config, data_path):
    """Load, impute, split, and scale. Scaler parameters come from train rows only."""
    table = dataset.load_dataset(data_path, config.dataset)
    table, n_imputed = dataset.handle_missing(table)
    split = dataset.SplitSpec(
        holdout_fraction=config.holdout_fraction,
        n_folds=config.n_folds, seed=config.master_seed,
    )
    train_ids, test_ids = dataset.split_holdout(table, split)
    matrix = dataset.fit_transform(table, train_ids)
    return PreparedData(
        dataset=config.dataset, matrix=matrix,
        train_ids=train_ids, test_ids=test_ids, n_imputed=n_imputed,
    )


def fit_core(prepared, config):
    """Fit the ensemble and compute attributions for train and test rows."""
    X = prepared.matrix.values
    y = prepared.matrix.labels
    ens = gbm.fit(X[prepared.train_ids], y[prepared.train_ids], config.gbm_config)
    bg = attribution.make_background(X, prepared.train_ids, seed=child_seed(config.master_seed, 1))
    # one pass over train and test rows: a row's attributions depend only on
    # that row, the ensemble and the background
    shap = attribution.shap_matrix(
        ens, prepared.matrix, bg, rows=np.concatenate([prepared.train_ids, prepared.test_ids]),
    )
    n_train = prepared.train_ids.size
    shap_train = replace(shap, values=shap.values[:n_train])
    shap_test = replace(shap, values=shap.values[n_train:])
    return FittedCore(ensemble=ens, shap_train=shap_train, shap_test=shap_test)


def _cluster_split(fit_shap, eval_shap, spec, k, seed):
    """The ClusterModel fit on fit_shap (its assignment covers those rows) and
    the out-of-sample assignment of the eval_shap rows."""
    model = kernel_kmeans.fit(fit_shap, k=k, spec=spec, seed=seed)
    return model, kernel_kmeans.assign_batch(model, eval_shap)


def _variant_batch(variant, net_seed, x, shap, onehot):
    """NetBatch carrying the inputs VARIANT_WIRING gives the variant.

    The random-attention gate input is one standard-normal vector drawn from
    the variant's network seed and broadcast to every row.
    """
    gate, cluster = VARIANT_WIRING[variant]
    if gate == "noise":
        noise = np.random.default_rng([net_seed, 0xA7, 99]).standard_normal(x.shape[1])
        shap = np.broadcast_to(noise, x.shape)
    return network.NetBatch(
        x=x, shap=None if gate == "none" else shap, onehot=onehot if cluster else None,
    )


@dataclass
class GridCell:
    kernel: str
    k: int
    fold_f1: list
    mean_f1: float
    error: str | None = None


@dataclass
class GridResult:
    cells: list
    best_index: int


def _cv_folds(prepared, config):
    """The CV grid's (fit_rows, val_rows) folds of the training split."""
    return dataset.stratified_kfold(
        prepared.train_ids, prepared.matrix.labels,
        dataset.SplitSpec(n_folds=config.n_folds, seed=child_seed(config.master_seed, 2)),
    )


def check_grid_fits(prepared, config):
    """UsageError when a grid k is below 1 or above the rows of the smallest
    CV fit fold.

    Such a cell can only fail, so the check runs before any model is fitted.
    """
    smallest = min(len(fit_rows) for fit_rows, _ in _cv_folds(prepared, config))
    _check_k("grid k", [k for _, k in config.grid], smallest, "the smallest CV fit fold")


def check_final_fit(prepared, k):
    """UsageError when an explicit k is below 1 or above the training rows,
    which the final cluster refit uses; checked before any model is fitted."""
    _check_k("k", [k], prepared.train_ids.size, "the training split")


def _check_k(name, ks, rows, where):
    bad = sorted({k for k in ks if not 1 <= k <= rows})
    if bad:
        raise UsageError(f"{name} {bad} outside [1, {rows}], the rows of {where}")


def _cv_fold_data(prepared, core, config):
    """The fold table: per fold of _cv_folds, the fit and the validation
    (x, shap, y) arrays, cut once per grid and shared by every cell."""
    X = prepared.matrix.values
    y = prepared.matrix.labels
    shap_rows = core.shap_train.values  # aligned with train_ids order

    def part(rows):
        return X[rows], shap_rows[np.searchsorted(prepared.train_ids, rows)], y[rows]

    return [(part(fit_rows), part(val_rows)) for fit_rows, val_rows in _cv_folds(prepared, config)]


def _grid_cell(folds, spec, k, config):
    """The GridCell of one (kernel, k): the full variant's weighted F1 on each
    fold of the fold table. A cell stops at its first failed fold, keeping
    the F1 of the folds before it, a nan mean and the error."""
    cell_tag = _name_tag(spec.label())
    fold_f1 = []
    try:
        for fold_id, ((x_fit, shap_fit, y_fit), (x_val, shap_val, y_val)) in enumerate(folds):
            model, val_assignment = _cluster_split(
                shap_fit, shap_val, spec, k, child_seed(config.master_seed, 3, cell_tag, k, fold_id))
            net_cfg = config.net_config(seed=child_seed(config.master_seed, 4, cell_tag, k, fold_id))
            fit_batch = _variant_batch("full", net_cfg.seed, x_fit, shap_fit,
                                       kernel_kmeans.onehot(model.assignment, k))
            val_batch = _variant_batch("full", net_cfg.seed, x_val, shap_val,
                                       kernel_kmeans.onehot(val_assignment, k))
            result = network.train(fit_batch, y_fit, val_batch, y_val, net_cfg)
            probs = network.predict(result.params, val_batch)
            # stratified folds hold both classes, so F1 alone needs no AUC
            fold_f1.append(metrics.classification_metrics(probs, y_val).f1)
    except ShapgateError as e:
        return GridCell(kernel=spec.label(), k=k, fold_f1=fold_f1, mean_f1=float("nan"), error=str(e))
    return GridCell(kernel=spec.label(), k=k, fold_f1=fold_f1, mean_f1=float(np.mean(fold_f1)))


def run_cv_grid(prepared, core, config):
    """Mean five-fold weighted F1 of the full variant for every grid cell."""
    folds = _cv_fold_data(prepared, core, config)
    cells = [_grid_cell(folds, spec, k, config) for spec, k in config.grid]
    means = np.array([c.mean_f1 for c in cells])
    if np.all(np.isnan(means)):
        raise DataError("every grid cell failed during cross-validation")
    best_index = int(np.argmax(np.where(np.isnan(means), -np.inf, means)))
    return GridResult(cells=cells, best_index=best_index)


@dataclass
class VariantResult:
    report: metrics.EvalReport | None
    gate_input_sha256: str | None
    train_seconds: float
    error: str | None = None


def _gate_hash(core):
    digest = hashlib.sha256()
    digest.update(core.shap_train.values.tobytes())
    digest.update(core.shap_test.values.tobytes())
    return digest.hexdigest()


def refit_clusters(core, spec, k, master_seed):
    """The final cluster fit on all training attributions.

    Returns the ClusterModel (its assignment covers the train rows) and the
    out-of-sample assignment of the test rows.
    """
    return _cluster_split(core.shap_train.values, core.shap_test.values, spec, k,
                          seed=child_seed(master_seed, 5))


def run_final(prepared, core, spec, k, config):
    """Refit clusters on all training attributions, train and evaluate variants."""
    X = prepared.matrix.values
    y = prepared.matrix.labels
    tr, te = prepared.train_ids, prepared.test_ids
    cluster_model, test_assignment = refit_clusters(core, spec, k, config.master_seed)
    train_parts = (X[tr], core.shap_train.values, kernel_kmeans.onehot(cluster_model.assignment, k))
    test_parts = (X[te], core.shap_test.values, kernel_kmeans.onehot(test_assignment, k))
    shap_hash = _gate_hash(core)
    results = {}
    for variant in config.variants:
        start = time.perf_counter()
        try:
            net_cfg = config.net_config(
                seed=child_seed(config.master_seed, 6, _name_tag(variant))
            )
            train_batch = _variant_batch(variant, net_cfg.seed, *train_parts)
            test_batch = _variant_batch(variant, net_cfg.seed, *test_parts)
            # final fit has no held-back fold: early stopping monitors training loss
            fitted = network.train(train_batch, y[tr], train_batch, y[tr], net_cfg)
            probs = network.predict(fitted.params, test_batch)
            report = metrics.evaluate(probs, y[te])
            gate = shap_hash if VARIANT_WIRING[variant][0] == "shap" else None
            results[variant] = VariantResult(
                report=report, gate_input_sha256=gate,
                train_seconds=time.perf_counter() - start,
            )
        except ShapgateError as e:
            results[variant] = VariantResult(
                report=None, gate_input_sha256=None,
                train_seconds=time.perf_counter() - start, error=str(e),
            )
    return cluster_model, results


@dataclass
class RunRecord:
    dataset: str
    master_seed: int
    selection_seed: int  # master seed whose CV run chose the hyperparameters
    n_train: int
    n_test: int
    n_features: int
    chosen_spec: kernel_kmeans.KernelSpec
    chosen_k: int
    grid_cells: list  # empty when selection was inherited from another seed
    variants: dict  # name -> VariantResult
    timings: dict  # stage -> seconds

    @property
    def chosen_kernel(self):
        return self.chosen_spec.label()


def run_experiment(config, data_path, chosen=None):
    """One full run for one master seed.

    chosen: optional (KernelSpec, k, selection_seed) to reuse instead of
    running the CV grid; used by seed repetitions so selection happens once
    per dataset.
    """
    timings = {}
    start = time.perf_counter()
    prepared = prepare(config, data_path)
    timings["prepare"] = time.perf_counter() - start
    if chosen is None:
        check_grid_fits(prepared, config)

    start = time.perf_counter()
    core = fit_core(prepared, config)
    timings["fit_and_attribute"] = time.perf_counter() - start

    grid_cells = []
    selection_seed = config.master_seed
    if chosen is None:
        start = time.perf_counter()
        grid_result = run_cv_grid(prepared, core, config)
        timings["cv_grid"] = time.perf_counter() - start
        spec, k = config.grid[grid_result.best_index]
        grid_cells = grid_result.cells
    else:
        spec, k, selection_seed = chosen

    start = time.perf_counter()
    _, variant_results = run_final(prepared, core, spec, k, config)
    timings["final"] = time.perf_counter() - start

    return RunRecord(
        dataset=config.dataset,
        master_seed=config.master_seed,
        selection_seed=selection_seed,
        n_train=prepared.train_ids.size,
        n_test=prepared.test_ids.size,
        n_features=prepared.matrix.values.shape[1],
        chosen_spec=spec,
        chosen_k=k,
        grid_cells=grid_cells,
        variants=variant_results,
        timings=timings,
    )


def run_many(config, data_path):
    """config.n_seeds repetitions. CV selection runs once, on the first seed;
    seeds 2..N run only from the selection it made."""
    first = run_experiment(config, data_path)
    chosen = (first.chosen_spec, first.chosen_k, first.master_seed)
    rest = [replace(config, master_seed=config.master_seed + i) for i in range(1, config.n_seeds)]
    return [first] + [run_experiment(cfg, data_path, chosen=chosen) for cfg in rest]


def records_from_manifest(manifest):
    """Rebuild RunRecords from a manifest's "runs" list.

    ROC points are not stored in manifests, so rebuilt records carry empty
    roc_points and report emission skips the ROC CSVs. A manifest of the
    wrong shape is a DataError.
    """
    runs = manifest.get("runs", []) if isinstance(manifest, dict) else None
    if not isinstance(runs, list):
        raise DataError('manifest must be a JSON object whose "runs" is a list')
    try:
        records = [_record_from_run(run) for run in runs]
    except (AttributeError, KeyError, TypeError) as e:
        raise DataError(f"manifest run is malformed: {type(e).__name__}: {e}") from e
    if not records:
        raise DataError("manifest contains no runs")
    return records


def _manifest_number(value, what):
    """value when it is a finite int or float, else DataError; a bool is no
    number, and NaN or Infinity would be written back as invalid JSON."""
    finite = isinstance(value, int) or (isinstance(value, float) and math.isfinite(value))
    if isinstance(value, bool) or not finite:
        raise DataError(f"manifest {what} must be a finite number, got {value!r}")
    return value


def _record_from_run(run):
    """One entry of a manifest's "runs" list as a RunRecord."""
    # the dataset names the report files: "../x" would write outside the output directory
    ds = run["dataset"]
    if not isinstance(ds, str) or ds not in dataset.SCHEMAS:
        raise DataError(f"manifest dataset {ds!r} is not one of {sorted(dataset.SCHEMAS)}")
    variants = {}
    for name, entry in run["variants"].items():
        report = None
        if "metrics" in entry:
            m = entry["metrics"]
            report = metrics.EvalReport(
                **{name: _manifest_number(m[name], f"metric {name}") for name in metrics.REPORTED},
                roc_points=[],
            )
        variants[name] = VariantResult(
            report=report,
            gate_input_sha256=entry.get("gate_input_sha256"),
            train_seconds=_manifest_number(entry.get("train_seconds", 0.0), "train_seconds"),
            error=entry.get("error"),
        )
    return RunRecord(
        dataset=ds,
        master_seed=run["master_seed"],
        selection_seed=run["selection_seed"],
        n_train=run["n_train"],
        n_test=run["n_test"],
        n_features=run["n_features"],
        chosen_spec=kernel_kmeans.spec_from_label(run["chosen_kernel"]),
        chosen_k=run["chosen_k"],
        grid_cells=[
            GridCell(kernel=c["kernel"], k=c["k"],
                     fold_f1=[_manifest_number(f1, "grid fold_f1") for f1 in c["fold_f1"]],
                     mean_f1=(float("nan") if c["mean_f1"] is None
                              else _manifest_number(c["mean_f1"], "grid mean_f1")),
                     error=c["error"])
            for c in run.get("grid", [])
        ],
        variants=variants,
        timings={stage: _manifest_number(seconds, f"timing {stage}")
                 for stage, seconds in run.get("timings", {}).items()},
    )


# ------------------------------------------------------------------ reporting

def _variant_metric_rows(records, variants):
    """(variant, medians) per variant: the median of each metrics.REPORTED
    name across records as an attribute, or None if every record failed it."""
    rows = []
    for variant in variants:
        reports = [r.variants[variant].report for r in records
                   if variant in r.variants and r.variants[variant].report is not None]
        medians = SimpleNamespace(**{
            name: float(np.median([getattr(rep, name) for rep in reports]))
            for name in metrics.REPORTED
        }) if reports else None
        rows.append((variant, medians))
    return rows


def _table_row(variant, medians, fmt, sep):
    """The variant and its medians, each through fmt, joined by sep."""
    cells = [("failed" if medians is None else fmt(getattr(medians, name)))
             for name in metrics.REPORTED]
    return sep.join([variant, *cells])


def _median_record(records, variant="full"):
    """The record whose full-variant F1 sits at the (lower) median."""
    scored = [
        (r.variants[variant].report.f1, i)
        for i, r in enumerate(records)
        if variant in r.variants and r.variants[variant].report is not None
    ]
    if not scored:
        return records[0]
    scored.sort()
    return records[scored[(len(scored) - 1) // 2][1]]


def _record_manifest(record):
    out = {
        "dataset": record.dataset,
        "master_seed": record.master_seed,
        "selection_seed": record.selection_seed,
        "n_train": record.n_train,
        "n_test": record.n_test,
        "n_features": record.n_features,
        "chosen_kernel": record.chosen_kernel,
        "chosen_k": record.chosen_k,
        "timings": {k: round(v, 3) for k, v in record.timings.items()},
        "variants": {},
        "grid": [
            {"kernel": c.kernel, "k": c.k,
             "mean_f1": None if np.isnan(c.mean_f1) else c.mean_f1,
             "fold_f1": c.fold_f1, "error": c.error}
            for c in record.grid_cells
        ],
    }
    for name, vr in record.variants.items():
        entry = {
            "gate_input_sha256": vr.gate_input_sha256,
            "train_seconds": round(vr.train_seconds, 3),
            "error": vr.error,
        }
        if vr.report is not None:
            entry["metrics"] = vr.report.metric_dict()
        out["variants"][name] = entry
    return out


@contextlib.contextmanager
def atomic_open(path):
    """Open a temp file beside `path` for writing and rename it into place
    on a clean exit, so a crash never leaves a half-written file."""
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def check_writable(out_dir):
    """UsageError unless out_dir is a writable directory or can be made one.

    The probe file goes in the nearest existing ancestor and is removed, so
    the check creates nothing and can run before any data is read.
    """
    parent = os.path.abspath(out_dir)
    while not os.path.lexists(parent):
        parent = os.path.dirname(parent)
    probe = os.path.join(parent, f".write_probe.{os.getpid()}")
    try:
        with open(probe, "w"):
            pass
        os.remove(probe)
    except OSError as e:
        raise UsageError(f"output directory {out_dir!r} is not writable: {e}") from e


def write_text(out_dir, name, text):
    """Write text to out_dir/name atomically, making out_dir if needed;
    return the path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with atomic_open(path) as fh:
        fh.write(text)
    return path


def emit_report(records, out_dir):
    """Write metrics CSVs, ROC CSVs, a Markdown summary, and a JSON manifest."""
    if not records:
        raise DataError("no records to report")
    check_writable(out_dir)

    by_dataset = {}
    for record in records:
        by_dataset.setdefault(record.dataset, []).append(record)

    written = []
    summary_lines = ["# Experiment summary", ""]
    manifest = {"datasets": {}, "runs": [], "reference_check": {}}
    for ds, recs in sorted(by_dataset.items()):
        variants = [v for v in VARIANTS if any(v in r.variants for r in recs)]
        rows = _variant_metric_rows(recs, variants)
        lines = [",".join(["variant", *metrics.REPORTED])]
        lines += [_table_row(variant, med, repr, ",") for variant, med in rows]
        written.append(write_text(out_dir, f"{ds}_metrics.csv", "\n".join(lines) + "\n"))

        roc_source = _median_record(recs)
        for variant in variants:
            vr = roc_source.variants.get(variant)
            if vr is None or vr.report is None or not vr.report.roc_points:
                continue
            roc_lines = ["fpr,tpr", *(f"{fpr!r},{tpr!r}" for fpr, tpr in vr.report.roc_points)]
            roc_text = "\n".join(roc_lines) + "\n"
            written.append(write_text(out_dir, f"{ds}_roc_{variant}.csv", roc_text))

        chosen = f"kernel={recs[0].chosen_kernel}, k={recs[0].chosen_k}"
        seeds = [r.master_seed for r in recs]
        summary_lines += [
            f"## {ds}",
            "",
            f"Chosen clustering: {chosen} (selected on seed {recs[0].selection_seed}; "
            f"{len(recs)} run{'s' if len(recs) > 1 else ''}, seeds {seeds})",
            "",
            "| variant | precision | recall | F1 | accuracy | AUC |",
            "|---|---|---|---|---|---|",
        ]
        summary_lines += [f"| {_table_row(variant, med, '{:.3f}'.format, ' | ')} |"
                          for variant, med in rows]
        summary_lines.append("")

        full_row = dict(rows).get("full")
        if full_row is not None and ds in REFERENCE_F1:
            deviation = full_row.f1 - REFERENCE_F1[ds]
            within = abs(deviation) <= REFERENCE_TOLERANCE
            manifest["reference_check"][ds] = {
                "reference_f1": REFERENCE_F1[ds],
                "median_f1": full_row.f1,
                "deviation": deviation,
                "tolerance": REFERENCE_TOLERANCE,
                "within_tolerance": within,
            }
            note = "within" if within else "OUTSIDE"
            summary_lines += [
                f"Reference check: median full F1 {full_row.f1:.3f} vs reference "
                f"{REFERENCE_F1[ds]:.2f} (deviation {deviation:+.3f}, {note} "
                f"the +/-{REFERENCE_TOLERANCE} tolerance)",
                "",
            ]

        manifest["datasets"][ds] = {
            "variant_medians": {v: None if m is None else vars(m) for v, m in rows},
            "chosen_kernel": recs[0].chosen_kernel,
            "chosen_k": recs[0].chosen_k,
            "seeds": seeds,
        }

    manifest["runs"] = [_record_manifest(r) for r in records]
    written.append(write_text(out_dir, "summary.md", "\n".join(summary_lines) + "\n"))
    written.append(write_text(out_dir, "manifest.json",
                              json.dumps(manifest, indent=2, sort_keys=True) + "\n"))
    return written
