"""End-to-end pipeline behavior on small configurations.

Oracle strategy: holdout hygiene is checked with a tripwire (corrupt test-row
continuous features, assert every train-side artifact is bit-identical);
selection and determinism claims are checked against recomputed argmax and
byte-level file comparison; the blob test fabricates attribution vectors whose
cluster structure IS the label so the recovered k is known in advance.
"""

import ast
import errno
import json
import math
import os
import pickle
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import assert_no_child, plain_batch
from shapgate import attribution, dataset, gbm, kernel_kmeans, metrics, network, pipeline, seeds
from shapgate.errors import (DataError, ParseError, ShapgateError, TrainingDivergedError,
                             UsageError, WorkerDiedError)

PACKAGE = Path(pipeline.__file__).resolve().parent

SMALL_GRID = [
    (kernel_kmeans.KernelSpec("linear"), 2),
    (kernel_kmeans.KernelSpec("radial", gamma=0.1), 3),
]


def small_config(**overrides):
    base = dict(
        dataset="diabetes",
        master_seed=0,
        n_seeds=1,
        gbm_config=gbm.GbmConfig(n_trees=15),
        grid=list(SMALL_GRID),
        max_epochs=25,
        patience=8,
    )
    base.update(overrides)
    return pipeline.ExperimentConfig(**base)


@pytest.fixture(scope="module")
def diabetes_path(dataset_files):
    path, _ = dataset_files["diabetes"]
    return path


@pytest.fixture(scope="module")
def small_parts(diabetes_path):
    config = small_config()
    prepared = pipeline.prepare(config, diabetes_path)
    core = pipeline.fit_core(prepared, config)
    return config, prepared, core


@pytest.fixture(scope="module")
def small_record(diabetes_path):
    return pipeline.run_experiment(small_config(), diabetes_path)


# ------------------------------------------------------------ config errors

def test_unknown_dataset_rejected():
    with pytest.raises(UsageError, match="unknown dataset"):
        pipeline.ExperimentConfig(dataset="wine")


def test_unknown_variant_rejected():
    with pytest.raises(UsageError, match="unknown variants"):
        small_config(variants=("full", "bogus"))


def test_zero_gbm_trees_rejected():
    # gbm.fit accepts 0 trees; an experiment on their all-zero attributions does not
    with pytest.raises(UsageError, match="n_trees"):
        small_config(gbm_config=gbm.GbmConfig(n_trees=0))


# each setting's numbers out of range; grid k has none here, as select checks
# it against the rows of the fit folds
OUT_OF_RANGE = {
    "master_seed": [-1], "n_seeds": [0], "holdout_fraction": [0.0, 1.0, 1.5], "n_folds": [1],
    "step_size": [0.0, -1e-3], "batch_size": [0], "max_epochs": [0], "patience": [-1],
    "gbm n_trees": [0, -1], "gbm learning_rate": [0.0, -0.1], "gbm max_depth": [0],
    "gbm min_samples_leaf": [0], "grid k": [], "variant": [1],
}


def config_with(setting, value):
    """An ExperimentConfig of defaults but for one setting; "gbm <name>" goes
    through gbm_config, "grid k" is the one cell's k and "variant" a second
    variant entry."""
    if setting.startswith("gbm "):
        return pipeline.ExperimentConfig(dataset="heart",
                                         gbm_config=gbm.GbmConfig(**{setting[4:]: value}))
    if setting == "grid k":
        return pipeline.ExperimentConfig(dataset="heart",
                                         grid=[(kernel_kmeans.KernelSpec("linear"), value)])
    if setting == "variant":
        return pipeline.ExperimentConfig(dataset="heart", variants=("full", value))
    return pipeline.ExperimentConfig(dataset="heart", **{setting: value})


@pytest.mark.parametrize("setting, value", [
    (setting, value) for setting, numbers in OUT_OF_RANGE.items()
    for value in ("x", None, {}, True, math.nan, math.inf, -math.inf, *numbers)], ids=str)
def test_a_bad_setting_raises_usage_error_from_the_constructor(setting, value):
    # the one check of every setting: never a TypeError or DataError from a
    # config built later
    with pytest.raises(UsageError, match=setting):
        config_with(setting, value)


def test_settings_at_the_edge_of_their_range_are_kept():
    config = pipeline.ExperimentConfig(
        dataset="heart", master_seed=np.int64(0), n_seeds=1, holdout_fraction=np.float32(0.5),
        n_folds=2, step_size=1, batch_size=1, max_epochs=1, patience=0,
        gbm_config=gbm.GbmConfig(n_trees=1, learning_rate=5, max_depth=1, min_samples_leaf=1),
        grid=[(kernel_kmeans.KernelSpec("linear"), 0)], variants=["simple_nn"])
    assert type(config.master_seed) is int and config.holdout_fraction == np.float32(0.5)
    assert config.net_config(seed=3) == network.NetConfig(
        step_size=1, batch_size=1, max_epochs=1, patience=0, seed=3)


def test_grid_k_outside_fit_fold_stops_before_fitting(diabetes_path, monkeypatch):
    config = small_config()
    prepared = pipeline.prepare(config, diabetes_path)
    folds = pipeline._cv_folds(prepared, config)
    smallest = min(len(fit_rows) for fit_rows, _ in folds)
    spec = kernel_kmeans.KernelSpec("linear")

    def no_fit(*args, **kwargs):
        raise AssertionError("gbm.fit ran before the grid check")

    monkeypatch.setattr(pipeline.gbm, "fit", no_fit)
    # the smallest and the largest valid k get past the check, as far as the first fit
    with pytest.raises(AssertionError, match="gbm.fit ran"):
        pipeline.select(small_config(grid=[(spec, 1), (spec, smallest)]), diabetes_path)
    for k in (smallest + 1, 0):
        with pytest.raises(UsageError, match=f"grid k \\[{k}\\]"):
            pipeline.run_experiment(small_config(grid=[(spec, 2), (spec, k)]), diabetes_path)


def test_a_class_too_small_for_the_folds_stops_cv_before_fitting(heart_few_positives,
                                                                  monkeypatch):
    config = small_config(dataset="heart", gbm_config=gbm.GbmConfig(n_trees=5))
    prepared = pipeline.prepare(config, heart_few_positives)
    y = prepared.matrix.labels
    assert (y[prepared.train_ids].sum(), y[prepared.test_ids].sum()) == (4, 1)
    pipeline.fit_core(prepared, config)

    def no_fit(*args, **kwargs):
        raise AssertionError("gbm.fit ran before the fold check")

    monkeypatch.setattr(pipeline.gbm, "fit", no_fit)
    with pytest.raises(DataError, match="class 1 has 4 training members"):
        pipeline.select(config, heart_few_positives)


# ------------------------------------------------------------ run records

def test_run_record_shape(small_record):
    r = small_record
    assert r.n_train + r.n_test == 520
    assert (kernel_kmeans.spec_from_label(r.chosen_kernel), r.chosen_k) in SMALL_GRID
    assert sorted(r.variants) == sorted(pipeline.VARIANTS)
    for vr in r.variants.values():
        assert vr.error is None
        assert vr.report is not None
        assert 0.0 <= vr.report.f1 <= 1.0
    assert set(r.timings) == {"prepare", "fit_and_attribute", "cv_grid", "final"}


def test_selection_attains_max_mean_f1(small_parts):
    config, prepared, core = small_parts
    result = pipeline.run_cv_grid(prepared, core, config)
    means = [c.mean_f1 for c in result.cells]
    best = result.best_index
    assert means[best] == max(m for m in means if not np.isnan(m))
    # ties resolve to the earliest grid index
    assert all(means[i] < means[best] for i in range(best))


def test_grid_cell_has_five_folds(small_parts):
    config, prepared, core = small_parts
    result = pipeline.run_cv_grid(prepared, core, config)
    for cell in result.cells:
        assert len(cell.fold_f1) == config.n_folds
        assert cell.mean_f1 == pytest.approx(np.mean(cell.fold_f1))


def test_duplicated_grid_cell_identical_mean_f1(small_parts):
    _, prepared, core = small_parts
    cell = (kernel_kmeans.KernelSpec("linear"), 2)
    config = small_config(grid=[cell, SMALL_GRID[1], cell])
    result = pipeline.run_cv_grid(prepared, core, config)
    assert result.cells[0].mean_f1 == result.cells[2].mean_f1
    assert result.cells[0].fold_f1 == result.cells[2].fold_f1
    # the duplicate can never win a tie against its earlier copy
    assert result.best_index != 2


def test_cv_failure_recorded_not_raised(small_parts):
    _, prepared, core = small_parts
    # k larger than any fit fold makes the second cell fail; the third has
    # finite parameters, but its kernel values overflow to inf
    config = small_config(grid=[SMALL_GRID[0], (kernel_kmeans.KernelSpec("linear"), 5000),
                                (kernel_kmeans.spec_from_label("poly_d2_c1e200"), 2)])
    result = pipeline.run_cv_grid(prepared, core, config)
    assert result.cells[0].error is None
    assert result.cells[1].error is not None
    assert np.isnan(result.cells[1].mean_f1)
    assert "non-finite" in result.cells[2].error
    assert np.isnan(result.cells[2].mean_f1)
    assert result.best_index == 0


def test_all_cells_failing_is_data_error(small_parts):
    _, prepared, core = small_parts
    config = small_config(grid=[(kernel_kmeans.KernelSpec("linear"), 5000)])
    with pytest.raises(DataError, match="every grid cell failed"):
        pipeline.run_cv_grid(prepared, core, config)


# the premise of a parallel grid: a cell's result does not depend on where it
# sits in the grid, and a failed cell stays failed at any position
FOUR_CELL_GRID = [
    (kernel_kmeans.KernelSpec("linear"), 2),
    (kernel_kmeans.spec_from_label("rbf_g0.1"), 3),
    (kernel_kmeans.spec_from_label("poly_d2_c1"), 2),
    (kernel_kmeans.KernelSpec("linear"), 5000),
]


@pytest.fixture(scope="module")
def grid_order_cells(small_parts):
    _, prepared, core = small_parts
    cells = pipeline.run_cv_grid(prepared, core, small_config(grid=FOUR_CELL_GRID)).cells
    assert cells[3].error is not None and all(c.error is None for c in cells[:3])
    return {(c.kernel, c.k): repr(c) for c in cells}


@settings(max_examples=3, deadline=None)
@example(grid=FOUR_CELL_GRID[::-1])
@given(grid=st.permutations(FOUR_CELL_GRID))
def test_grid_cells_do_not_depend_on_grid_order(small_parts, grid_order_cells, grid):
    _, prepared, core = small_parts
    result = pipeline.run_cv_grid(prepared, core, small_config(grid=grid))
    assert [(c.kernel, c.k) for c in result.cells] == [(spec.label(), k) for spec, k in grid]
    assert {(c.kernel, c.k): repr(c) for c in result.cells} == grid_order_cells


@pytest.fixture(scope="module")
def three_seed_records(diabetes_path):
    config = small_config(n_seeds=3, grid=[SMALL_GRID[0]], max_epochs=10)
    return config, pipeline.run_many(config, diabetes_path)


def test_run_many_reuses_selection(three_seed_records):
    _, records = three_seed_records
    assert len(records) == 3
    assert records[0].grid_cells
    for i, record in enumerate(records[1:], start=1):
        assert not record.grid_cells
        assert record.selection_seed == records[0].master_seed
        assert record.master_seed == records[0].master_seed + i
        assert record.chosen_kernel == records[0].chosen_kernel
        assert record.chosen_k == records[0].chosen_k


def test_later_seeds_depend_only_on_the_inherited_selection(diabetes_path, three_seed_records):
    # each later seed, run alone and in reverse order, reproduces its record
    config, records = three_seed_records
    chosen = (records[0].chosen_spec, records[0].chosen_k, records[0].master_seed)
    for record in records[:0:-1]:
        lone = pipeline.run_experiment(replace(config, master_seed=record.master_seed),
                                       diabetes_path, chosen=chosen)
        assert lone.variants.keys() == record.variants.keys()
        for name, vr in record.variants.items():
            assert vr.error is None and lone.variants[name].error is None
            for f in fields(vr.report):
                assert getattr(lone.variants[name].report, f.name) == getattr(vr.report, f.name)
            assert lone.variants[name].gate_input_sha256 == vr.gate_input_sha256


# ------------------------------------------------------------ blob recovery

def test_cv_recovers_generating_k():
    # three well separated attribution blobs; the label is 0 for the first
    # blob and 1 for the other two. Blobs 0 and 1 sit close together, so k=2
    # must merge them and mix the labels, while k=3 separates them exactly.
    # Raw features are pure noise: only the cluster one-hot carries signal.
    rng = np.random.default_rng(7)
    sizes = (50, 35, 35)
    centers = (0.0, 3.0, 40.0)
    shap_rows, labels = [], []
    for blob, (m, c) in enumerate(zip(sizes, centers)):
        block = rng.normal(0.0, 0.25, size=(m, 6))
        block[:, 0] += c
        shap_rows.append(block)
        labels += [0 if blob == 0 else 1] * m
    shap_rows = np.vstack(shap_rows)
    labels = np.array(labels)
    perm = rng.permutation(labels.size)
    shap_rows, labels = shap_rows[perm], labels[perm]

    matrix = dataset.FeatureMatrix(
        values=rng.normal(size=(labels.size, 6)),
        labels=labels,
        feature_names=[f"f{i}" for i in range(6)],
    )
    prepared = pipeline.PreparedData(
        dataset="diabetes", matrix=matrix,
        train_ids=np.arange(labels.size), test_ids=np.arange(0),
        n_imputed=0,
    )
    core = pipeline.FittedCore(
        ensemble=None,
        shap_train=attribution.ShapMatrix(values=shap_rows, base_value=0.0),
        shap_test=attribution.ShapMatrix(values=shap_rows[:1], base_value=0.0),
    )
    config = small_config(
        grid=[(kernel_kmeans.KernelSpec("linear"), 2), (kernel_kmeans.KernelSpec("linear"), 3)],
        max_epochs=60, patience=60,
    )
    result = pipeline.run_cv_grid(prepared, core, config)
    assert config.grid[result.best_index][1] == 3
    assert result.cells[1].mean_f1 > result.cells[0].mean_f1 + 0.1


# ------------------------------------------------------------ variant wiring

def test_gate_hash_shared_between_full_and_no_cluster_labels(small_record):
    v = small_record.variants
    assert v["full"].gate_input_sha256 is not None
    assert v["full"].gate_input_sha256 == v["no_cluster_labels"].gate_input_sha256
    assert v["simple_nn"].gate_input_sha256 is None
    assert v["random_attention"].gate_input_sha256 is None


def test_simple_nn_path_is_plain_mlp(small_parts, small_record):
    # retraining a bare MLP on raw features with the variant's derived seed
    # must reproduce the pipeline's simple_nn report exactly: its path never
    # touches attribution or cluster artifacts
    config, prepared, core = small_parts
    X, y = prepared.matrix.values, prepared.matrix.labels
    tr, te = prepared.train_ids, prepared.test_ids
    net_cfg = config.net_config(
        seed=pipeline.child_seed(config.master_seed, 6, seeds.content_tag("simple_nn"))
    )
    train_batch = plain_batch(X[tr])
    fitted = network.train(train_batch, y[tr], train_batch, y[tr], net_cfg)
    probs = network.predict(fitted.params, plain_batch(X[te]))
    report = metrics.evaluate(probs, y[te])
    got = small_record.variants["simple_nn"].report
    assert report.f1 == got.f1
    assert report.accuracy == got.accuracy
    assert report.auc == got.auc


# ------------------------------------------------------------ holdout hygiene

def _corrupt_test_rows(clean_path, out_path, test_ids):
    # shift the Age column (the only continuous one) on test rows; labels and
    # categorical levels stay untouched so the split and encoding are stable
    lines = open(clean_path).read().splitlines()
    header, rows = lines[0], lines[1:]
    age_col = header.split(",").index("Age")
    for i in test_ids:
        cells = rows[i].split(",")
        cells[age_col] = str(int(cells[age_col]) * 7 + 500)
        rows[i] = ",".join(cells)
    with open(out_path, "w") as fh:
        fh.write("\n".join([header] + rows) + "\n")


def _train_side_artifacts(config, path):
    prepared = pipeline.prepare(config, path)
    core = pipeline.fit_core(prepared, config)
    grid_result = pipeline.run_cv_grid(prepared, core, config)
    spec, k = config.grid[grid_result.best_index]
    model, _ = pipeline.refit_clusters(core, spec, k, config.master_seed)
    net_cfg = config.net_config(
        seed=pipeline.child_seed(config.master_seed, 6, seeds.content_tag("full"))
    )
    X, y = prepared.matrix.values, prepared.matrix.labels
    tr = prepared.train_ids
    onehot = np.zeros((tr.size, k))
    onehot[np.arange(tr.size), model.assignment] = 1.0
    batch = network.NetBatch(x=X[tr], shap=core.shap_train.values, onehot=onehot)
    fitted = network.train(batch, y[tr], batch, y[tr], net_cfg)
    return prepared, core, grid_result, model, fitted


def test_holdout_tripwire(tmp_path, dataset_files):
    clean_path, _ = dataset_files["diabetes"]
    config = small_config(max_epochs=12)
    probe = pipeline.prepare(config, clean_path)
    corrupt_path = tmp_path / "corrupted.csv"
    _corrupt_test_rows(clean_path, corrupt_path, probe.test_ids)

    a = _train_side_artifacts(config, clean_path)
    b = _train_side_artifacts(config, corrupt_path)

    assert np.array_equal(a[0].train_ids, b[0].train_ids)
    assert np.array_equal(a[0].test_ids, b[0].test_ids)
    tr = a[0].train_ids
    # the scaled training rows carry the scaler fit, bit for bit
    assert a[0].matrix.values[tr].tobytes() == b[0].matrix.values[tr].tobytes()
    ens_a, ens_b = a[1].ensemble, b[1].ensemble
    assert ens_a.base_margin == ens_b.base_margin and ens_a.n_trees == ens_b.n_trees
    for tree_a, tree_b in zip(ens_a.trees, ens_b.trees):
        for field in fields(tree_a):
            assert np.array_equal(getattr(tree_a, field.name), getattr(tree_b, field.name))
    background_seed = pipeline.child_seed(config.master_seed, 1)
    bg_a, bg_b = (attribution.make_background(side[0].matrix.values, tr, seed=background_seed)
                  for side in (a, b))
    assert np.array_equal(bg_a.rows, bg_b.rows)
    assert np.array_equal(a[1].shap_train.values, b[1].shap_train.values)
    assert [c.mean_f1 for c in a[2].cells] == [c.mean_f1 for c in b[2].cells]
    assert a[2].best_index == b[2].best_index
    assert np.array_equal(a[3].assignment, b[3].assignment)
    for name in ("delta", "W1", "b1", "W2", "b2", "W3", "b3"):
        assert np.array_equal(getattr(a[4].params, name), getattr(b[4].params, name))
    # the corruption itself must be visible where test rows ARE used
    assert not np.array_equal(
        a[0].matrix.values[a[0].test_ids], b[0].matrix.values[b[0].test_ids]
    )


# ------------------------------------------------------------ reporting

def test_emit_report_single_variant_four_files(tmp_path, diabetes_path):
    config = small_config(variants=("full",), grid=[SMALL_GRID[0]], max_epochs=10)
    record = pipeline.run_experiment(config, diabetes_path)
    written = pipeline.emit_report([record], tmp_path / "out")
    names = sorted(os.path.basename(w) for w in written)
    assert names == [
        "diabetes_metrics.csv", "diabetes_roc_full.csv", "manifest.json", "summary.md",
    ]


def test_numpy_integer_settings_report_like_ints(tmp_path, diabetes_path):
    config = small_config(master_seed=np.int64(0), variants=("full",), max_epochs=10,
                          grid=[(SMALL_GRID[0][0], np.int64(2))])
    assert type(config.master_seed) is int and type(config.grid[0][1]) is int
    record = pipeline.run_experiment(config, diabetes_path)
    out, again = tmp_path / "out", tmp_path / "again"
    pipeline.emit_report([record], out)
    assert "seeds [0])" in (out / "summary.md").read_text()
    manifest = json.loads((out / "manifest.json").read_text())
    pipeline.emit_report(pipeline.records_from_manifest(manifest), again)
    for name in ("diabetes_metrics.csv", "summary.md", "manifest.json"):
        assert (out / name).read_bytes() == (again / name).read_bytes(), name


def _strip_timings(node):
    if isinstance(node, dict):
        return {k: _strip_timings(v) for k, v in node.items()
                if k not in ("timings", "train_seconds")}
    if isinstance(node, list):
        return [_strip_timings(v) for v in node]
    return node


def test_rerun_emits_byte_identical_files(tmp_path, diabetes_path):
    config = small_config(grid=[SMALL_GRID[0]], max_epochs=10)
    r1 = pipeline.run_experiment(config, diabetes_path)
    r2 = pipeline.run_experiment(small_config(grid=[SMALL_GRID[0]], max_epochs=10), diabetes_path)
    w1 = pipeline.emit_report([r1], tmp_path / "a")
    w2 = pipeline.emit_report([r2], tmp_path / "b")
    assert len(w1) == len(w2)
    for p1, p2 in zip(w1, w2):
        assert os.path.basename(p1) == os.path.basename(p2)
        if p1.endswith(".json"):
            # manifests embed wall-clock timings; everything else must match
            a = _strip_timings(json.load(open(p1)))
            b = _strip_timings(json.load(open(p2)))
            assert a == b
        else:
            assert open(p1, "rb").read() == open(p2, "rb").read()


def test_manifest_contents(tmp_path, small_record):
    pipeline.emit_report([small_record], tmp_path)
    manifest = json.load(open(tmp_path / "manifest.json"))
    assert "diabetes" in manifest["reference_check"]
    check = manifest["reference_check"]["diabetes"]
    assert check["tolerance"] == pipeline.REFERENCE_TOLERANCE
    assert check["within_tolerance"] == (abs(check["deviation"]) <= check["tolerance"])
    run = manifest["runs"][0]
    assert run["chosen_kernel"] == small_record.chosen_kernel
    assert len(run["grid"]) == len(SMALL_GRID)
    for name in pipeline.VARIANTS:
        assert "metrics" in run["variants"][name]


def test_report_from_manifest_reproduces_metrics_csv(tmp_path, small_record):
    out1 = tmp_path / "direct"
    out2 = tmp_path / "rendered"
    pipeline.emit_report([small_record], out1)
    manifest = json.load(open(out1 / "manifest.json"))
    records = pipeline.records_from_manifest(manifest)
    pipeline.emit_report(records, out2)
    assert (out1 / "diabetes_metrics.csv").read_bytes() == (out2 / "diabetes_metrics.csv").read_bytes()
    # ROC points are not stored in manifests, so no ROC files reappear
    assert not list(out2.glob("*_roc_*.csv"))


def test_failed_variant_rows(tmp_path, small_record):
    failed = pipeline.VariantResult(report=None, gate_input_sha256=None, train_seconds=0.0,
                                    error="boom")
    record = replace(small_record, variants={**small_record.variants, "random_attention": failed})
    out1, out2 = tmp_path / "direct", tmp_path / "rendered"
    pipeline.emit_report([record], out1)
    pipeline.emit_report(pipeline.records_from_manifest(json.load(open(out1 / "manifest.json"))),
                         out2)
    for out in (out1, out2):
        csv_lines = (out / "diabetes_metrics.csv").read_text().splitlines()
        assert csv_lines[0] == "variant,precision,recall,f1,accuracy,auc"
        assert "random_attention,failed,failed,failed,failed,failed" in csv_lines
        summary_lines = (out / "summary.md").read_text().splitlines()
        assert "| variant | precision | recall | F1 | accuracy | AUC |" in summary_lines
        assert "| random_attention | failed | failed | failed | failed | failed |" in summary_lines
    assert not (out1 / "diabetes_roc_random_attention.csv").exists()
    assert (out1 / "diabetes_metrics.csv").read_bytes() == (out2 / "diabetes_metrics.csv").read_bytes()
    manifest = json.load(open(out1 / "manifest.json"))
    assert manifest["datasets"]["diabetes"]["variant_medians"]["random_attention"] is None


def test_emit_report_unwritable_dir(tmp_path, small_record):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    with pytest.raises(UsageError, match="not writable"):
        pipeline.emit_report([small_record], blocker / "sub")


class _HalfThenRaise:
    """A file opened for writing whose write writes half its text, then
    raises `error`."""

    def __init__(self, fh, error):
        self.fh, self.error = fh, error

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        raise self.error


def _fail_writing(monkeypatch, name, error):
    """Make the writer's write of output `name` (its temp file) fail with
    `error` halfway through."""
    def open_failing(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        return _HalfThenRaise(fh, error) if os.path.basename(path).startswith(f".{name}.") else fh

    monkeypatch.setattr(pipeline, "open", open_failing, raising=False)


def test_emit_report_crash_leaves_no_partial_file(tmp_path, small_record, monkeypatch):
    out = tmp_path / "out"
    pipeline.emit_report([small_record], out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    _fail_writing(monkeypatch, "manifest.json", RuntimeError("crash while writing the manifest"))
    for target in (out, tmp_path / "fresh"):
        with pytest.raises(RuntimeError, match="crash while writing"):
            pipeline.emit_report([small_record], target)
        # no temp file is left, and no half-written manifest takes the place
        # of the old one (or appears where there was none)
        assert not [p.name for p in target.iterdir() if p.name.endswith(".tmp")]
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert not (tmp_path / "fresh" / "manifest.json").exists()
    monkeypatch.undo()
    pipeline.emit_report([small_record], tmp_path / "fresh")
    assert {p.name: p.read_bytes() for p in (tmp_path / "fresh").iterdir()} == before


def test_a_report_that_fails_at_any_file_leaves_the_old_one_whole(tmp_path, small_record,
                                                                    monkeypatch):
    # report B differs from report A in every file, so a file of B that
    # reached the directory before the failure would show
    variants = {name: replace(vr, report=replace(vr.report, f1=vr.report.f1 / 2,
                                                 roc_points=[(0.0, 0.0), (1.0, 1.0)]))
                for name, vr in small_record.variants.items()}
    record_b = replace(small_record, master_seed=small_record.master_seed + 1, variants=variants)
    out, out_b = tmp_path / "out", tmp_path / "b"
    pipeline.emit_report([small_record], out)
    report_a = {p.name: p.read_bytes() for p in out.iterdir()}
    names = [os.path.basename(p) for p in pipeline.emit_report([record_b], out_b)]
    report_b = {p.name: p.read_bytes() for p in out_b.iterdir()}
    assert names[-1] == "manifest.json" and len(names) > 2
    assert set(report_b) == set(report_a) and all(report_b[n] != report_a[n] for n in names)

    for name in names:
        _fail_writing(monkeypatch, name, OSError(errno.ENOSPC, "No space left on device"))
        with pytest.raises(UsageError, match="not writable"):
            pipeline.emit_report([record_b], out)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == report_a, name
        monkeypatch.undo()
    pipeline.emit_report([record_b], out)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == report_b


def _is_file_write(call):
    """An os.replace or os.rename call, a pathlib write_text or write_bytes
    call, or an open call whose mode is not a read-only literal."""
    f = call.func
    if isinstance(f, ast.Attribute):
        return ((isinstance(f.value, ast.Name) and f.value.id == "os"
                 and f.attr in ("replace", "rename"))
                or f.attr in ("write_text", "write_bytes"))
    mode = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    return (isinstance(f, ast.Name) and f.id == "open" and bool(mode)
            and not (isinstance(mode[0], ast.Constant) and set(mode[0].value) <= set("rbt")))


def _file_writes(tree):
    """(innermost enclosing function, line) of each file write in tree."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function_of_child = child.name
            else:
                function_of_child = function
                if isinstance(child, ast.Call) and _is_file_write(child):
                    found.append((function, child.lineno))
            visit(child, function_of_child)

    visit(tree, None)
    return found


def test_files_are_written_only_through_write_files():
    # check_writable's probe is the one other open for writing, and it
    # leaves no file
    found = {path.name: _file_writes(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(PACKAGE.glob("*.py"))}
    stray = [f"{name}:{line} in {function}" for name, writes in found.items()
             for function, line in writes if function not in ("write_files", "check_writable")]
    assert not stray, f"files written outside pipeline.write_files: {stray}"
    assert {function for function, _ in found["pipeline.py"]} == {"write_files",
                                                                    "check_writable"}


def test_emit_report_empty_records():
    with pytest.raises(DataError, match="no records"):
        pipeline.emit_report([], "/tmp/unused")


def test_three_dataset_summary_has_three_tables(tmp_path, dataset_files):
    records = []
    for name in ("diabetes", "heart", "credit"):
        path, _ = dataset_files[name]
        config = small_config(
            dataset=name, grid=[SMALL_GRID[0]],
            gbm_config=gbm.GbmConfig(n_trees=8), max_epochs=8, patience=8,
        )
        records.append(pipeline.run_experiment(config, path))
    pipeline.emit_report(records, tmp_path)
    summary = (tmp_path / "summary.md").read_text()
    assert summary.count("## ") == 3
    for line_prefix in ("| full ", "| simple_nn ", "| random_attention ", "| no_cluster_labels "):
        assert summary.count(line_prefix) == 3


# ------------------------------------------------------------ seeds

def test_child_seed_deterministic_and_tag_sensitive():
    assert pipeline.child_seed(3, 1, 2) == pipeline.child_seed(3, 1, 2)
    assert pipeline.child_seed(3, 1, 2) != pipeline.child_seed(3, 2, 1)
    assert pipeline.child_seed(3, 1) != pipeline.child_seed(4, 1)


# ------------------------------------------------------------ processes

@pytest.mark.parametrize("cores, blas_threads, processes", [
    (1, "1", 1),     # one core
    (2, None, 1),    # OpenBLAS's default: a thread per core
    (2, "2", 1),
    (8, "2", 4),
    (8, "3", 2),
    (8, "16", 1),
    (8, "0", 1),     # not a thread count: the default
    (8, "x", 1),
])
def test_processes_times_blas_threads_stay_within_the_cores(cores, blas_threads, processes,
                                                            monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    if blas_threads is not None:
        monkeypatch.setenv("OMP_NUM_THREADS", blas_threads)
    assert pipeline._processes() == processes
    if blas_threads is not None:
        # OpenBLAS reads its own variable first
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert pipeline._processes() == cores


def test_default_blas_threads_run_in_this_process(diabetes_path, monkeypatch):
    def no_fork():
        raise AssertionError("a worker was forked beside a thread per core")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setattr(os, "fork", no_fork)
    # two grid cells and four variants, each of which two processes would share
    record = pipeline.run_experiment(small_config(max_epochs=5), diabetes_path)
    assert len(record.grid_cells) == 2 and len(record.variants) == 4


def deal_over(monkeypatch, processes):
    """Deal maps over `processes` processes: that many usable cores, one
    BLAS thread each."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(processes)),
                        raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")


def test_a_fork_that_fails_raises_worker_died_error(monkeypatch):
    real_fork = os.fork
    forks = []

    def fail_at_the_second_fork():
        # as when the system runs out of processes
        forks.append(None)
        if len(forks) == 2:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real_fork()

    deal_over(monkeypatch, 3)
    monkeypatch.setattr(os, "fork", fail_at_the_second_fork)
    with pytest.raises(WorkerDiedError, match="could not be started") as raised:
        pipeline._map(lambda i: i, [(i,) for i in range(6)])
    assert isinstance(raised.value.__cause__, OSError)
    assert raised.value.__cause__.errno == errno.EAGAIN
    assert len(forks) == 2
    assert_no_child()  # the worker already started was killed and reaped


def test_a_result_a_worker_cannot_pickle_names_it(monkeypatch):
    deal_over(monkeypatch, 2)
    with pytest.raises(pickle.PicklingError, match="could not send back its results") as raised:
        pipeline._map(lambda i: (lambda: i), [(i,) for i in range(4)])
    assert "lambda" in str(raised.value)
    assert "Traceback (most recent call last)" in str(raised.value.__cause__)
    assert_no_child()


def test_an_exception_a_worker_cannot_pickle_names_it(monkeypatch):
    class Unpicklable(Exception):  # a local class does not pickle
        pass

    def raise_in_the_worker(i):
        if i % 2:
            raise Unpicklable("raised in the worker")
        return i

    deal_over(monkeypatch, 2)
    with pytest.raises(pickle.PicklingError, match="raised in the worker") as raised:
        pipeline._map(raise_in_the_worker, [(i,) for i in range(4)])
    # the cause holds the worker's own traceback and the pickling failure's
    cause = str(raised.value.__cause__)
    assert "in raise_in_the_worker" in cause and "Unpicklable: raised in the worker" in cause
    assert cause.count("Traceback (most recent call last)") == 2
    assert_no_child()


def _subclasses(cls):
    return [cls] + [c for sub in cls.__subclasses__() for c in _subclasses(sub)]


# constructor arguments of the errors whose constructor is not Exception's
ERROR_ARGS = {ParseError: [("bad cell", 3, 2), ("bad cell", 3)], TrainingDivergedError: [(7,)]}


@pytest.mark.parametrize(("cls", "args"), [
    (cls, args) for cls in _subclasses(ShapgateError) for args in ERROR_ARGS.get(cls, [("a message",)])
])
def test_every_package_error_survives_a_pickle_round_trip(cls, args):
    # a worker's exception reaches the caller as a pickle
    err = cls(*args)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls and str(back) == str(err) and vars(back) == vars(err)


def test_a_parse_error_in_a_worker_is_raised_in_the_caller(monkeypatch):
    def parse_in_the_worker(i):
        if i % 2:
            raise ParseError("bad cell", line=i, column=2)
        return i

    deal_over(monkeypatch, 2)
    with pytest.raises(ParseError, match=r"bad cell \(line 1, column 2\)") as raised:
        pipeline._map(parse_in_the_worker, [(i,) for i in range(4)])
    assert (raised.value.line, raised.value.column) == (1, 2)
    assert "in parse_in_the_worker" in str(raised.value.__cause__)
    assert_no_child()


def test_a_keyboard_interrupt_in_the_callers_share_leaves_no_child(monkeypatch):
    caller = os.getpid()

    def interrupt_the_caller(i):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        time.sleep(60)  # the worker is still running when the caller stops
        return i

    deal_over(monkeypatch, 2)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        pipeline._map(interrupt_the_caller, [(i,) for i in range(2)])
    assert time.monotonic() - started < 30
    assert_no_child()


def test_a_worker_exception_reaches_the_caller_and_no_worker_outlives_the_run(
        diabetes_path, monkeypatch):
    real_train = network.train

    def break_at_k3(fit_batch, y_fit, val_batch, y_val, config):
        # the rbf k=3 cell, the second, is the forked worker's share
        if fit_batch.onehot is not None and fit_batch.onehot.shape[1] == 3:
            raise RuntimeError("not a shapgate error")
        return real_train(fit_batch, y_fit, val_batch, y_val, config)

    # two processes: two usable cores, one BLAS thread each
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(network, "train", break_at_k3)
    config = small_config(max_epochs=5)
    with pytest.raises(RuntimeError, match="not a shapgate error") as raised:
        pipeline.run_experiment(config, diabetes_path)
    # raised in the worker: the cause carries the worker's traceback
    cause = str(raised.value.__cause__)
    assert "in break_at_k3" in cause and "RuntimeError: not a shapgate error" in cause
    assert_no_child()
    monkeypatch.setattr(network, "train", real_train)
    record = pipeline.run_experiment(config, diabetes_path)
    assert all(c.error is None for c in record.grid_cells)
    assert_no_child()
