"""End-to-end experiment orchestration.

Per dataset and master seed: split a stratified holdout, fit the scaler and
the boosted ensemble on training rows only, compute attribution vectors for
all rows from that one fit, select clustering hyperparameters by five-fold
cross-validation on the training split (mean weighted F1 of the full
variant), then refit clusters on all training attributions, train every
variant on the training split, and evaluate once on the untouched holdout.
select() is the one path from data to a clustering choice; run_experiment
and the cv and cluster commands all go through it.

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
import copy
import ctypes
import errno
import functools
import json
import math
import os
import pickle
import signal
import time
from collections import namedtuple
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from . import attribution, dataset, gbm, kernel_kmeans, metrics, network, seeds
from .errors import DataError, ShapgateError, UsageError, WorkerDiedError
from .seeds import child_seed  # noqa: F401 (the benchmark reads pipeline.child_seed)

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


def _count(name, value, least):
    """An integer setting as a Python int, which the JSON manifest takes and
    summary.md prints plainly: a float would be truncated or crash mid-run,
    and a bool is no number. least=None leaves the range to the caller."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise UsageError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise UsageError(f"{name} must be >= {least}, got {value}")
    return int(value)


def _real(name, value, high):
    """A real setting, kept as given once checked to lie in (0, high) as a
    float: NaN and the infinities fail, and a bool is no number, though
    True > 0 holds."""
    if not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating)):
        with contextlib.suppress(OverflowError):
            if 0.0 < float(value) < high:
                return value
    raise UsageError(f"{name} must be a number in (0, {high}), got {value!r}")


@dataclass
class ExperimentConfig:
    """Every setting of an experiment and its default. Constructing one is
    the one check of the settings: a bad value raises UsageError here, so a
    run stops before any fitting, and the configs built from it (GbmConfig,
    NetConfig, SplitSpec) carry the values unchecked."""

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
        if not isinstance(self.dataset, str) or self.dataset not in dataset.SCHEMAS:
            raise UsageError(f"unknown dataset {self.dataset!r}")
        for name, least in (("master_seed", 0), ("n_seeds", 1), ("n_folds", 2),
                            ("batch_size", 1), ("max_epochs", 1), ("patience", 0)):
            setattr(self, name, _count(name, getattr(self, name), least))
        self.holdout_fraction = _real("holdout_fraction", self.holdout_fraction, 1.0)
        self.step_size = _real("step_size", self.step_size, math.inf)
        if not isinstance(self.gbm_config, gbm.GbmConfig):
            raise UsageError(f"gbm_config must be a GbmConfig, got {self.gbm_config!r}")
        # n_trees >= 1: gbm.fit takes zero trees, but their attributions are
        # all zero, so every gate would be a constant one half
        self.gbm_config = replace(
            self.gbm_config,
            learning_rate=_real("gbm learning_rate", self.gbm_config.learning_rate, math.inf),
            **{name: _count(f"gbm {name}", getattr(self.gbm_config, name), 1)
               for name in ("n_trees", "max_depth", "min_samples_leaf")})
        # k is checked against the fit folds' rows in select, once the data is read
        if not isinstance(self.grid, (list, tuple)) or not all(
                isinstance(cell, (list, tuple)) and len(cell) == 2
                and isinstance(cell[0], kernel_kmeans.KernelSpec) for cell in self.grid):
            raise UsageError(f"grid must be a list of (KernelSpec, k) cells, got {self.grid!r}")
        if not self.grid:
            raise UsageError("grid must hold at least one [kernel_label, k] cell")
        self.grid = [(spec, _count("grid k", k, None)) for spec, k in self.grid]
        if not isinstance(self.variants, (list, tuple)):
            raise UsageError(f"variants must be a list of names, got {self.variants!r}")
        unknown = [v for v in self.variants if not isinstance(v, str) or v not in VARIANT_WIRING]
        if unknown:
            raise UsageError(f"unknown variants: {unknown}")
        # an empty list trains nothing, and a repeated name trains twice to
        # keep one result
        if not self.variants or len(set(self.variants)) != len(self.variants):
            raise UsageError(f"variants must name each variant at most once and not be empty, "
                             f"got {list(self.variants)}")

    def net_config(self, seed):
        return network.NetConfig(
            step_size=self.step_size, batch_size=self.batch_size,
            max_epochs=self.max_epochs, patience=self.patience, seed=seed,
        )


@functools.cache
def _blas_threads():
    """(get(), set(n)), the thread count functions of the OpenBLAS this
    process has loaded, numpy's wheel's names first, or None where none is
    found: another BLAS, or no /proc. The library is whichever mapped file
    exports them, whatever its name; RTLD_NOLOAD opens only a library that
    is loaded already."""
    try:
        with open("/proc/self/maps") as maps:
            # address perms offset device inode [path]
            rows = [line.rstrip("\n").split(maxsplit=5) for line in maps]
    except OSError:
        return None
    libs = []
    for path in dict.fromkeys(row[5] for row in rows if len(row) == 6):
        with contextlib.suppress(OSError):
            libs.append(ctypes.CDLL(path, mode=os.RTLD_NOLOAD))
    for names in (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
                  ("openblas_get_num_threads", "openblas_set_num_threads")):
        for lib in libs:
            if all(hasattr(lib, name) for name in names):
                get, set_ = (getattr(lib, name) for name in names)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def _processes():
    """How many processes a map deals its calls over: one per usable core,
    which _map pins to one BLAS thread each, or one where no OpenBLAS thread
    setter is found. The outputs do not depend on the count."""
    if _blas_threads() is None:
        return 1
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


_in_map = False  # a map is in progress, in this process or in the one it was forked from


class _WorkerTraceback(Exception):
    """The formatted traceback of an exception raised in a worker; the
    caller raises the exception again with this as its __cause__."""


def _work_share(fn, calls, share, processes, pipes):
    """The forked worker's whole life. It closes the pipe ends it inherited
    but its own write end, pipes[-1], runs calls[share::processes] and
    writes one pickle to that end: (True, results, None), or (False, the
    exception, its formatted traceback). A reply that does not pickle, or an
    exception that does not unpickle, is replaced by a PicklingError that
    names it. The worker leaves through os._exit, status 0 once the whole
    pickle is written: it never returns into the caller's stack and never
    flushes the stdio buffers it inherited."""
    status = 1
    try:
        for end in pipes[:-1]:
            os.close(end)
        try:
            reply = (True, [fn(*args) for args in calls[share::processes]], None)
        except BaseException as err:
            import traceback
            reply = (False, err, traceback.format_exc())
        try:
            data = pickle.dumps(reply)
            if not reply[0]:
                pickle.loads(data)
        except BaseException as err:
            import traceback
            what = "results" if reply[0] else f"exception {reply[1]!r}"
            data = pickle.dumps((False, pickle.PicklingError(
                f"a worker could not send back its {what}: {err!r}"),
                (reply[2] or "") + traceback.format_exc()))
        with os.fdopen(pipes[-1], "wb") as out:
            out.write(data)
        status = 0
    finally:
        os._exit(status)


def _reap(pid, flags, running):
    """Wait for a worker as os.waitpid(pid, flags) does, and once it has
    ended take it out of `running`, the workers not yet reaped. A worker
    that ended by a signal or a non-zero status raises WorkerDiedError."""
    done, status = os.waitpid(pid, flags)
    if done:
        running.discard(pid)
        if status:
            code = os.waitstatus_to_exitcode(status)
            how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
            raise WorkerDiedError(f"a worker process died before returning its results ({how})")


def _map(fn, calls):
    """[fn(*args) for args in calls], in call order. The calls are dealt
    round-robin over this process, which works share 0, and forked workers,
    _processes() in all, at most one per call. Each worker inherits fn and
    the calls through the fork, works its share and writes back one pickle
    over a pipe of its own; a spawned one would import numpy and the package
    again and be sent every input. The deal is static, so a share holds the
    same calls on every run. A map made inside another, here or in a worker,
    and every map where os.fork is missing, runs in one process.

    A map over more than one process sets OpenBLAS to one thread before it
    forks, so this process and every worker run one thread each, and gives
    this process its own count back on every exit.

    After each of its own calls this process polls the workers, so one that
    dies, as under kill -9, raises WorkerDiedError at once; so does a worker
    that could not be started. A worker's exception is raised here again,
    with the worker's traceback text as its __cause__. Every exit, an
    exception or KeyboardInterrupt included, kills and reaps each worker
    still running, so none outlives the map and RUSAGE_CHILDREN counts each
    worker's CPU."""
    global _in_map
    processes = 1 if _in_map or not hasattr(os, "fork") else min(_processes(), len(calls))
    if processes <= 1:
        return [fn(*args) for args in calls]
    get_threads, set_threads = _blas_threads()
    caller_threads = get_threads()
    out = [None] * len(calls)
    pipes = []  # pipe ends open in this process
    workers = []  # (pid, read end) per worker, in share order
    running = set()  # pids not yet reaped
    _in_map = True
    try:
        set_threads(1)  # the workers inherit it through the fork
        for share in range(1, processes):
            try:
                pipes += os.pipe()
                pid = os.fork()
            except OSError as err:
                raise WorkerDiedError("a worker process could not be started") from err
            if pid == 0:
                _work_share(fn, calls, share, processes, pipes)
            os.close(pipes.pop())
            workers.append((pid, pipes[-1]))
            running.add(pid)
        for i in range(0, len(calls), processes):
            out[i] = fn(*calls[i])
            for pid, _ in workers:
                if pid in running:
                    _reap(pid, os.WNOHANG, running)
        for share, (pid, read_end) in enumerate(workers, start=1):
            chunks = []
            while chunk := os.read(read_end, 1 << 16):
                chunks.append(chunk)
            if pid in running:
                _reap(pid, 0, running)
            ok, value, trace = pickle.loads(b"".join(chunks))
            if not ok:
                raise value from _WorkerTraceback(trace)
            out[share::processes] = value
    finally:
        _in_map = False
        set_threads(caller_threads)
        for end in pipes:
            os.close(end)
        for pid in running:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
    return out


@dataclass
class PreparedData:
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
    train_ids, test_ids = dataset.split_holdout(table, config.holdout_fraction, config.master_seed)
    matrix = dataset.fit_transform(table, train_ids)
    return PreparedData(matrix=matrix, train_ids=train_ids, test_ids=test_ids, n_imputed=n_imputed)


def fit_core(prepared, config):
    """Fit the ensemble and compute attributions for train and test rows."""
    X = prepared.matrix.values
    y = prepared.matrix.labels
    ens = gbm.fit(X[prepared.train_ids], y[prepared.train_ids], config.gbm_config)
    bg = attribution.make_background(X, prepared.train_ids,
                                     seed=seeds.derive("background", config.master_seed))
    # one pass over train and test rows: a row's attributions depend only on
    # that row, the ensemble and the background
    rows = np.concatenate([prepared.train_ids, prepared.test_ids])
    shap = attribution.shap_matrix(ens, X[rows], bg)
    names = prepared.matrix.feature_names
    n_train = prepared.train_ids.size
    shap_train = replace(shap, values=shap.values[:n_train], feature_names=names)
    shap_test = replace(shap, values=shap.values[n_train:], feature_names=names)
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
        noise = seeds.rng("attention_noise", net_seed).standard_normal(x.shape[1])
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
        dataset.SplitSpec(n_folds=config.n_folds, seed=seeds.derive("folds", config.master_seed)),
    )


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
    fold_f1 = []
    try:
        for fold_id, ((x_fit, shap_fit, y_fit), (x_val, shap_val, y_val)) in enumerate(folds):
            model, val_assignment = _cluster_split(
                shap_fit, shap_val, spec, k,
                seeds.derive("cv_cluster", config.master_seed, spec.label(), k, fold_id))
            net_cfg = config.net_config(
                seed=seeds.derive("cv_network", config.master_seed, spec.label(), k, fold_id))
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
    """Mean five-fold weighted F1 of the full variant for every grid cell,
    the cells dealt over processes by _map."""
    folds = _cv_fold_data(prepared, core, config)
    cells = _map(_grid_cell, [(folds, spec, k, config) for spec, k in config.grid])
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
    import hashlib  # here, not at the top: only run_final hashes, and it loads OpenSSL
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
                          seed=seeds.derive("final_refit", master_seed))


def _final_variant(variant, train_parts, test_parts, y_train, y_test, shap_hash, config):
    """The VariantResult of one variant trained on the training split and
    evaluated on the holdout; parts are (x, shap, onehot) per split."""
    start = time.perf_counter()
    try:
        net_cfg = config.net_config(seed=seeds.derive("final_network", config.master_seed, variant))
        train_batch = _variant_batch(variant, net_cfg.seed, *train_parts)
        test_batch = _variant_batch(variant, net_cfg.seed, *test_parts)
        # final fit has no held-back fold: early stopping monitors training loss
        fitted = network.train(train_batch, y_train, train_batch, y_train, net_cfg)
        probs = network.predict(fitted.params, test_batch)
        report = metrics.evaluate(probs, y_test)
    except ShapgateError as e:
        return VariantResult(report=None, gate_input_sha256=None,
                             train_seconds=time.perf_counter() - start, error=str(e))
    gate = shap_hash if VARIANT_WIRING[variant][0] == "shap" else None
    return VariantResult(report=report, gate_input_sha256=gate,
                         train_seconds=time.perf_counter() - start)


def run_final(prepared, core, spec, k, config):
    """Refit clusters on all training attributions, train and evaluate
    variants, the variants dealt over processes by _map."""
    X = prepared.matrix.values
    y = prepared.matrix.labels
    tr, te = prepared.train_ids, prepared.test_ids
    cluster_model, test_assignment = refit_clusters(core, spec, k, config.master_seed)
    train_parts = (X[tr], core.shap_train.values, kernel_kmeans.onehot(cluster_model.assignment, k))
    test_parts = (X[te], core.shap_test.values, kernel_kmeans.onehot(test_assignment, k))
    shap_hash = _gate_hash(core)
    calls = [(variant, train_parts, test_parts, y[tr], y[te], shap_hash, config)
             for variant in config.variants]
    return cluster_model, dict(zip(config.variants, _map(_final_variant, calls)))


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


@dataclass
class Selection:
    prepared: PreparedData
    core: FittedCore
    chosen: tuple  # (KernelSpec, k, selection_seed)
    grid: GridResult | None  # None when the choice was given
    timings: dict  # stage -> seconds


def select(config, data_path, chosen=None):
    """Prepare the data, fit the core and make the clustering choice: the CV
    grid's best cell, or the given (KernelSpec, k, selection_seed). A k
    outside [1, rows] can only fail, so before any fit it is a UsageError:
    grid k against the smallest CV fit fold, a given k against the training
    split, which the final cluster refit uses. The CV folds are dealt before
    any fit too, so a class too small for them is a DataError first."""
    timings = {}
    start = time.perf_counter()
    prepared = prepare(config, data_path)
    timings["prepare"] = time.perf_counter() - start
    if chosen is None:
        name, ks, where = "grid k", [k for _, k in config.grid], "the smallest CV fit fold"
        rows = min(len(fit_rows) for fit_rows, _ in _cv_folds(prepared, config))
    else:
        name, ks, rows, where = "k", [chosen[1]], prepared.train_ids.size, "the training split"
    bad = sorted({k for k in ks if not 1 <= k <= rows})
    if bad:
        raise UsageError(f"{name} {bad} outside [1, {rows}], the rows of {where}")

    start = time.perf_counter()
    core = fit_core(prepared, config)
    timings["fit_and_attribute"] = time.perf_counter() - start

    grid = None
    if chosen is None:
        start = time.perf_counter()
        grid = run_cv_grid(prepared, core, config)
        timings["cv_grid"] = time.perf_counter() - start
        chosen = (*config.grid[grid.best_index], config.master_seed)
    return Selection(prepared=prepared, core=core, chosen=chosen, grid=grid, timings=timings)


def run_experiment(config, data_path, chosen=None):
    """One full run for one master seed.

    chosen: optional (KernelSpec, k, selection_seed) to reuse instead of
    running the CV grid; used by seed repetitions so selection happens once
    per dataset.
    """
    sel = select(config, data_path, chosen)
    spec, k, selection_seed = sel.chosen
    start = time.perf_counter()
    _, variant_results = run_final(sel.prepared, sel.core, spec, k, config)
    sel.timings["final"] = time.perf_counter() - start

    return RunRecord(
        dataset=config.dataset,
        master_seed=config.master_seed,
        selection_seed=selection_seed,
        n_train=sel.prepared.train_ids.size,
        n_test=sel.prepared.test_ids.size,
        n_features=sel.prepared.matrix.values.shape[1],
        chosen_spec=spec,
        chosen_k=k,
        grid_cells=[] if sel.grid is None else sel.grid.cells,
        variants=variant_results,
        timings=sel.timings,
    )


def run_many(config, data_path):
    """config.n_seeds repetitions. CV selection runs once, on the first seed;
    seeds 2..N run only from the selection it made, one seed per call of a
    map, so each runs whole in one process."""
    first = run_experiment(config, data_path)
    chosen = (first.chosen_spec, first.chosen_k, first.master_seed)
    rest = [(replace(config, master_seed=config.master_seed + i), data_path, chosen)
            for i in range(1, config.n_seeds)]
    return [first] + _map(run_experiment, rest)


# ------------------------------------------------------------------ manifest

_LEFT_OUT = object()  # a written value that leaves its key out of the entry
# how a kind of manifest value is read back, read(value, what) -> record value
# or DataError, and written, write(record value) -> manifest value
_Kind = namedtuple("_Kind", "read write")
# a field of a manifest entry: its key, its kind, the record attribute (when
# named otherwise) and its value for a left-out key, or ... when it is required
_Field = namedtuple("_Field", "key kind attr default", defaults=(None, ...))


def _checked(description, ok, write=lambda value: value):
    """The kind of a value that must satisfy ok; a DataError or TypeError
    from ok, on a value of the wrong type, means it does not."""
    def read(value, what):
        with contextlib.suppress(DataError, TypeError):
            if ok(value):
                return value
        raise DataError(f"manifest {what} {value!r} is not {description}")
    return _Kind(read, write)


def _record(cls):
    """The kind of a JSON object holding a cls record, one key per field of
    MANIFEST_SCHEMA[cls]. A left-out key reads as a copy of the field's
    default (a KeyError when it has none); a _LEFT_OUT value is not written."""
    def read(entry, what):
        return cls(**{f.attr or f.key: f.kind.read(entry[f.key], f"{what} {f.key}")
                      if f.key in entry or f.default is ... else copy.copy(f.default)
                      for f in MANIFEST_SCHEMA[cls]})

    def write(record):
        entry = {f.key: f.kind.write(getattr(record, f.attr or f.key)) for f in MANIFEST_SCHEMA[cls]}
        return {key: value for key, value in entry.items() if value is not _LEFT_OUT}
    return _Kind(read, write)


def _list(kind):
    is_list = _checked("a list", lambda value: isinstance(value, list)).read
    return _Kind(lambda value, what: [kind.read(v, what) for v in is_list(value, what)],
                 lambda values: [kind.write(v) for v in values])


def _mapping(noun, kind, keys=None):
    """The kind of a JSON object of kind values; the one under n is "noun n".
    keys, when given, is the kind of the list of the object's keys."""
    def read(value, what):
        if keys is not None:
            keys.read(list(value), what)
        return {n: kind.read(v, f"{noun} {n}") for n, v in value.items()}
    return _Kind(read, lambda values: {n: kind.write(v) for n, v in values.items()})


def _read_report(value, what):
    return metrics.EvalReport(
        **{name: _METRIC.read(value[name], f"{what} {name}") for name in metrics.REPORTED},
        roc_points=[])


# type() keeps out bools; NaN and Infinity, invalid JSON, fail every range check
_COUNT = _checked("a non-negative integer", lambda v: type(v) is int and v >= 0)
_METRIC = _checked("a number in [0, 1]", lambda v: type(v) in (int, float) and 0 <= v <= 1)
_SECONDS = _checked("a finite number of seconds >= 0",
                    lambda v: type(v) in (int, float) and 0 <= v < math.inf,
                    lambda seconds: round(seconds, 3))
_LABEL = _checked("a kernel label", kernel_kmeans.spec_from_label)
_OPTIONAL_STR = _checked("a string or null", lambda v: v is None or isinstance(v, str))

# The manifest schema: per record type, the fields of its manifest entry.
# _RUN.write writes exactly these, and _RUN.read reads each back through its
# kind's check.
MANIFEST_SCHEMA = {
    RunRecord: (
        # the dataset names the report files: "../x" would write outside the output directory
        _Field("dataset", _checked(f"one of {sorted(dataset.SCHEMAS)}",
                                   lambda v: v in dataset.SCHEMAS)),
        _Field("master_seed", _COUNT), _Field("selection_seed", _COUNT), _Field("n_train", _COUNT),
        _Field("n_test", _COUNT), _Field("n_features", _COUNT), _Field("chosen_k", _COUNT),
        _Field("chosen_kernel", _Kind(lambda v, what: kernel_kmeans.spec_from_label(
            _LABEL.read(v, what)), kernel_kmeans.KernelSpec.label), "chosen_spec"),
        _Field("timings", _mapping("timing", _SECONDS), default={}),
        # report renders the variants it knows, so another name would be dropped
        _Field("variants", _mapping("variant", _record(VariantResult), _checked(
            f"one or more of {list(VARIANTS)}", lambda v: v and set(v) <= set(VARIANTS)))),
        _Field("grid", _list(_record(GridCell)), "grid_cells", default=[]),
    ),
    GridCell: (
        _Field("kernel", _LABEL), _Field("k", _COUNT), _Field("fold_f1", _list(_METRIC)),
        _Field("mean_f1", _Kind(lambda v, what: math.nan if v is None else _METRIC.read(v, what),
                                lambda mean: None if math.isnan(mean) else mean)),
        _Field("error", _OPTIONAL_STR),
    ),
    VariantResult: (
        _Field("metrics", _Kind(_read_report, lambda r: _LEFT_OUT if r is None else r.metric_dict()),
               "report", default=None),
        _Field("gate_input_sha256", _OPTIONAL_STR, default=None),
        _Field("train_seconds", _SECONDS, default=0.0),
        _Field("error", _OPTIONAL_STR, default=None),
    ),
}
_RUN = _record(RunRecord)


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
        records = [_RUN.read(run, "run") for run in runs]
    except (AttributeError, KeyError, TypeError) as e:
        raise DataError(f"manifest run is malformed: {type(e).__name__}: {e}") from e
    if not records:
        raise DataError("manifest contains no runs")
    return records


# ------------------------------------------------------------------ reporting

def _variant_metric_rows(records, variants):
    """(variant, medians) per variant: the median of each metrics.REPORTED
    name across records as an attribute, or None if every record failed it."""
    rows = []
    for variant in variants:
        reports = [r.variants[variant].report for r in records
                   if variant in r.variants and r.variants[variant].report is not None]
        medians = SimpleNamespace(**{
            name: metrics.median([getattr(rep, name) for rep in reports])
            for name in metrics.REPORTED
        }) if reports else None
        rows.append((variant, medians))
    return rows


def _table_row(variant, medians, fmt, sep):
    """The variant and its medians, each through fmt, joined by sep."""
    cells = [("failed" if medians is None else fmt(getattr(medians, name)))
             for name in metrics.REPORTED]
    return sep.join([variant, *cells])


def _median_record(records):
    """The record whose full-variant F1 sits at the (lower) median."""
    scored = [
        (r.variants["full"].report.f1, i)
        for i, r in enumerate(records)
        if "full" in r.variants and r.variants["full"].report is not None
    ]
    if not scored:
        return records[0]
    scored.sort()
    return records[scored[(len(scored) - 1) // 2][1]]


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


def write_files(out_dir, files):
    """Write each (name, text) of files into out_dir whole or not at all, and
    return the paths: every text goes to a temp file beside its target, and
    only when all are written are they renamed into place, in list order.
    Up to then an OSError, or a target that is a directory, is a UsageError.
    No temp file is left either way."""
    renames = []  # (temp file, target)
    try:
        try:
            os.makedirs(out_dir, exist_ok=True)
            for name, text in files:
                path = os.path.join(out_dir, name)
                if os.path.isdir(path):
                    raise IsADirectoryError(errno.EISDIR, "Is a directory", path)
                renames.append((os.path.join(out_dir, f".{name}.{os.getpid()}.tmp"), path))
                with open(renames[-1][0], "w", encoding="utf-8") as fh:
                    fh.write(text)
        except OSError as e:  # its filename names the output
            raise UsageError(f"output in {out_dir!r} is not writable: {e}") from e
        for tmp, path in renames:
            os.replace(tmp, path)
    finally:
        for tmp, _ in renames:
            with contextlib.suppress(OSError):  # renamed, or never made
                os.remove(tmp)
    return [path for _, path in renames]


def emit_report(records, out_dir):
    """Write metrics CSVs, ROC CSVs, a Markdown summary, and a JSON manifest,
    rendering them all first, so a record that cannot be rendered writes none,
    then writing them whole or not at all, manifest last."""
    if not records:
        raise DataError("no records to report")

    by_dataset = {}
    for record in records:
        by_dataset.setdefault(record.dataset, []).append(record)

    files = []  # (name, text) in writing order
    summary_lines = ["# Experiment summary", ""]
    manifest = {"datasets": {}, "runs": [], "reference_check": {}}
    for ds, recs in sorted(by_dataset.items()):
        variants = [v for v in VARIANTS if any(v in r.variants for r in recs)]
        rows = _variant_metric_rows(recs, variants)
        lines = [",".join(["variant", *metrics.REPORTED])]
        lines += [_table_row(variant, med, repr, ",") for variant, med in rows]
        files.append((f"{ds}_metrics.csv", "\n".join(lines) + "\n"))

        roc_source = _median_record(recs)
        for variant in variants:
            vr = roc_source.variants.get(variant)
            if vr is None or vr.report is None or not vr.report.roc_points:
                continue
            roc_lines = ["fpr,tpr", *(f"{fpr!r},{tpr!r}" for fpr, tpr in vr.report.roc_points)]
            files.append((f"{ds}_roc_{variant}.csv", "\n".join(roc_lines) + "\n"))

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

    manifest["runs"] = [_RUN.write(r) for r in records]
    files.append(("summary.md", "\n".join(summary_lines) + "\n"))
    files.append(("manifest.json",
                  json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n"))
    return write_files(out_dir, files)
