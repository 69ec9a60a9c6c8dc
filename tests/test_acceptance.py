"""Acceptance gate: one test per headline guarantee, numbered 01-10.

`pytest tests/test_acceptance.py -v` prints one pass/fail/skip line per
criterion. Criteria 1-5 and 9-10 are properties of the implementation and
hold on any input data. Criteria 6-8 restate the published findings for the
three UCI tables: the 10-seed battery behind them always runs end to end,
but the dataset-specific orderings are asserted only against the genuine
files (see conftest for the data/ drop-in layout) and skip on synthetic
stand-ins, where they would measure the stand-in generator, not the code.

The battery runs every dataset at full experiment settings once per session
and takes several minutes; criteria 1-5 finish in seconds. Criteria 6-10 read
the battery and carry the `slow` mark, so `pytest -m "not slow"` skips it.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from oracles import exact_shapley_oracle, fresh_loss_and_grads
from shapgate import attribution, gbm, network, pipeline
from shapgate import kernel_kmeans as kk

DATASETS = ("diabetes", "heart", "credit")
BATTERY_SEEDS = 10

TOL_LOCAL_ACCURACY = 1e-6  # criterion 1: margin reconstruction
TOL_ORACLE = 1e-9          # criterion 2: per-coordinate SHAP agreement
TOL_POLY_DIST = 1e-9       # criterion 3: implicit vs explicit quadratic map
TOL_GRAD_REL = 1e-4        # criterion 4: relative gradient error
TOL_AUC = 1e-12            # criterion 9: rank vs trapezoid AUC
N_ORACLE_INSTANCES = 100
N_KMEANS_INSTANCES = 20
N_GRAD_DRAWS = 10


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="session")
def battery(dataset_files, tmp_path_factory):
    """Ten-seed full-settings run of every dataset plus its emitted report."""
    out = {}
    for name in DATASETS:
        path, is_real = dataset_files[name]
        config = pipeline.ExperimentConfig(
            dataset=name, master_seed=0, n_seeds=BATTERY_SEEDS
        )
        records = pipeline.run_many(config, path)
        report_dir = tmp_path_factory.mktemp(f"battery_{name}")
        pipeline.emit_report(records, report_dir)
        out[name] = {
            "path": path,
            "real": is_real,
            "records": records,
            "report_dir": Path(report_dir),
        }
    return out


def _median_f1(records, variant):
    return float(np.median([r.variants[variant].report.f1 for r in records]))


def _assert_battery_sound(name, records):
    """Every seed must have produced a clean report for every variant."""
    assert len(records) == BATTERY_SEEDS
    for record in records:
        assert record.dataset == name
        for variant in pipeline.VARIANTS:
            vr = record.variants[variant]
            assert vr.error is None, f"{name}/{variant}: {vr.error}"
            assert 0.0 <= vr.report.f1 <= 1.0


def _standin_names(battery):
    return [name for name in DATASETS if not battery[name]["real"]]


def _skip_for_standins(battery, checked, values, label):
    standins = _standin_names(battery)
    shown = ", ".join(f"{n} {values[n]:+.4f}" for n in sorted(values))
    verified = f" (verified on: {', '.join(checked)})" if checked else ""
    pytest.skip(
        f"stand-in data active for {', '.join(standins)}; this is a claim "
        f"about the published UCI tables, so it is not asserted on synthetic "
        f"stand-ins{verified}. Observed {label}: {shown}. Drop the genuine "
        f"files into data/ to run the full check."
    )


# ------------------------------------------------------------- criterion 1

def test_criterion_01_shap_local_accuracy(dataset_files):
    """base_value + sum(phi) reproduces the GBM margin for every row."""
    for name in DATASETS:
        path, _ = dataset_files[name]
        config = pipeline.ExperimentConfig(dataset=name)
        prepared = pipeline.prepare(config, path)
        core = pipeline.fit_core(prepared, config)
        X = prepared.matrix.values
        for ids, shap in (
            (prepared.train_ids, core.shap_train),
            (prepared.test_ids, core.shap_test),
        ):
            margins = gbm.predict_margin_batch(core.ensemble, X[ids])
            recon = shap.base_value + shap.values.sum(axis=1)
            worst = float(np.max(np.abs(recon - margins)))
            assert worst <= TOL_LOCAL_ACCURACY, f"{name}: worst residual {worst}"


# ------------------------------------------------------------- criterion 2

def test_criterion_02_tree_shap_matches_exact_oracle():
    """Path-dependent TreeSHAP equals brute-force coalition enumeration."""
    rng = np.random.default_rng(20260819)
    for _ in range(N_ORACLE_INSTANCES):
        p = int(rng.integers(2, 11))
        n = int(rng.integers(25, 60))
        X = rng.normal(size=(n, p))
        y = (X[:, 0] + 0.6 * rng.normal(size=n) > 0).astype(np.int64)
        if y.min() == y.max():
            y[:2] = (0, 1)
        config = gbm.GbmConfig(
            n_trees=int(rng.integers(1, 6)),
            max_depth=int(rng.integers(1, 4)),
            learning_rate=float(rng.uniform(0.1, 0.5)),
        )
        rng.integers(10_000)  # unused draw, kept so the later draws and the instances stay fixed
        ensemble = gbm.fit(X, y, config)
        bg = attribution.Background(X[: int(rng.integers(1, 21))])
        x = X[int(rng.integers(n))]
        fast = attribution.shap_matrix(ensemble, x[None, :], bg)
        exact = exact_shapley_oracle(ensemble, x, bg)
        assert abs(fast.base_value - exact.base_value) <= TOL_ORACLE
        assert float(np.max(np.abs(fast.values - exact.values))) <= TOL_ORACLE


# ------------------------------------------------------------- criterion 3

def _plain_kmeans(X, k, init_assignment, max_iter=300):
    """Explicit-centroid Lloyd with the same tie and repair rules. Oracle."""
    assignment = init_assignment.copy()
    cents = None
    for _ in range(max_iter):
        sizes = np.bincount(assignment, minlength=k)
        if np.any(sizes == 0):
            cents = np.vstack(
                [X[assignment == c].mean(axis=0) if sizes[c] else np.zeros(X.shape[1])
                 for c in range(k)]
            )
            dist_own = ((X - cents[assignment]) ** 2).sum(axis=1)
            for c in range(k):
                if sizes[c] > 0:
                    continue
                movable = sizes[assignment] >= 2
                worst = int(np.argmax(np.where(movable, dist_own, -np.inf)))
                sizes[assignment[worst]] -= 1
                assignment[worst] = c
                sizes[c] = 1
        cents = np.vstack([X[assignment == c].mean(axis=0) for c in range(k)])
        d = ((X[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        new = np.argmin(d, axis=1)
        if np.array_equal(new, assignment):
            break
        assignment = new
    return assignment


def _quad_map(X):
    # explicit feature map of the c=0 degree-2 polynomial kernel
    n, p = X.shape
    cols = [X[:, i] * X[:, i] for i in range(p)]
    for i in range(p):
        for j in range(i + 1, p):
            cols.append(np.sqrt(2.0) * X[:, i] * X[:, j])
    return np.stack(cols, axis=1)


def test_criterion_03_kernel_kmeans_correctness():
    """Linear fit == plain Lloyd oracle; objective monotone; poly-2 map exact."""
    rng = np.random.default_rng(303)
    linear = kk.KernelSpec("linear")

    for _ in range(N_KMEANS_INSTANCES):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(4 * k, 60))
        p = int(rng.integers(2, 6))
        X = rng.normal(size=(n, p))
        X[: n // 2] += rng.uniform(1.0, 6.0)
        init = rng.integers(0, k, size=n)
        assignment = kk._lloyd(kk.kernel_matrix(linear, X), k, init, kk.MAX_ITER, {})[0]
        assert np.array_equal(assignment, _plain_kmeans(X, k, init))

    specs = [
        linear,
        kk.KernelSpec("polynomial", degree=3, coef0=1.0),
        kk.KernelSpec("radial", gamma=0.5),
    ]
    for s, spec in enumerate(specs):
        X = np.random.default_rng(1000 + s).normal(size=(60, 4))
        K = kk.kernel_matrix(spec, X)
        init = kk._greedy_seed_assignment(K, 4, np.random.default_rng([s, 0xC1, 0]))
        # objective after 1, 2, ... Lloyd steps, until the assignment settles
        objectives, previous = [], None
        for steps in range(1, kk.MAX_ITER + 1):
            assignment, _, _, obj = kk._lloyd(K, 4, init, steps, {})
            objectives.append(obj)
            if previous is not None and np.array_equal(assignment, previous):
                break
            previous = assignment
        assert len(objectives) >= 1
        assert np.all(np.diff(np.asarray(objectives)) <= 1e-9)

    poly2 = kk.KernelSpec("polynomial", degree=2, coef0=0.0)
    for trial in range(10):
        p = int(rng.integers(2, 5))
        X = rng.normal(size=(30, p))
        model = kk.fit(X, k=3, spec=poly2, seed=trial)
        mapped = _quad_map(X)
        dist = kk._centroid_dist2(model, X)
        assert np.all(dist >= -1e-9)
        for c in range(3):
            mean = mapped[model.assignment == c].mean(axis=0)
            for i in range(0, 30, 5):
                explicit = float(((mapped[i] - mean) ** 2).sum())
                assert abs(dist[i, c] - explicit) <= TOL_POLY_DIST


# ------------------------------------------------------------- criterion 4

def _max_relative_gradient_error(params, batch, y, step=1e-5):
    _, grads = fresh_loss_and_grads(params, batch, y)
    worst = 0.0
    for name in network.PARAM_GROUPS:
        arr = getattr(params, name)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            keep = arr[ix]
            arr[ix] = keep + step
            up = fresh_loss_and_grads(params, batch, y)[0]
            arr[ix] = keep - step
            down = fresh_loss_and_grads(params, batch, y)[0]
            arr[ix] = keep
            numeric = (up - down) / (2 * step)
            denom = max(abs(grads[name][ix]), abs(numeric), 1e-8)
            worst = max(worst, abs(grads[name][ix] - numeric) / denom)
    return worst


def test_criterion_04_gradients_match_finite_differences():
    """Analytic gradients, gate offset included, agree with central differences.

    The draws cycle through every wiring the pipeline uses: gate fed by
    attribution rows, by one broadcast noise vector, or absent, each with and
    without the cluster one-hot block.
    """
    rng = np.random.default_rng(404)
    for draw in range(N_GRAD_DRAWS):
        gate = ("shap", "random", "off")[draw % 3]
        cluster = draw % 2 == 0
        config = network.NetConfig(seed=300 + draw, hidden_sizes=(6, 4))
        params = network.init_params(5, config, n_clusters=3 if cluster else 0)
        # move the gate offset away from its zero init so its gradient is live
        params.delta[...] = rng.normal(size=5)
        onehot = np.zeros((9, 3))
        onehot[np.arange(9), rng.integers(0, 3, size=9)] = 1.0
        x = rng.normal(size=(9, 5))
        shap = rng.normal(size=(9, 5))
        if gate == "random":
            noise = np.random.default_rng([config.seed, 0xA7, 99]).standard_normal(5)
            shap = np.broadcast_to(noise, x.shape)
        batch = network.NetBatch(
            x=x, shap=None if gate == "off" else shap, onehot=onehot if cluster else None
        )
        y = rng.integers(0, 2, size=9).astype(float)
        err = _max_relative_gradient_error(params, batch, y)
        assert err <= TOL_GRAD_REL, f"draw {draw}: relative error {err}"


# ------------------------------------------------------------- criterion 5

def test_criterion_05_gated_network_collapses_to_plain_mlp():
    """A batch with no gate rows and no clusters is bit-identical to an independent MLP."""
    rng = np.random.default_rng(505)
    config = network.NetConfig(seed=41)
    params = network.init_params(6, config)
    X = rng.normal(size=(64, 6))
    ours = network.predict(params, network.NetBatch(x=X))
    z1 = X @ params.W1 + params.b1
    r1 = np.maximum(z1, 0.0)
    z2 = r1 @ params.W2 + params.b2
    r2 = np.maximum(z2, 0.0)
    logit = (r2 @ params.W3 + params.b3)[:, 0]
    theirs = 1.0 / (1.0 + np.exp(-logit))
    assert np.array_equal(ours, theirs)


# ------------------------------------------------------------- criterion 6

@pytest.mark.slow
def test_criterion_06_directional_reproduction(battery):
    """Median full F1 beats simple_nn on heart/credit, matches it on diabetes."""
    gaps = {}
    for name in DATASETS:
        _assert_battery_sound(name, battery[name]["records"])
        records = battery[name]["records"]
        gaps[name] = _median_f1(records, "full") - _median_f1(records, "simple_nn")

    checked = []
    for name in DATASETS:
        if not battery[name]["real"]:
            continue
        if name in ("heart", "credit"):
            assert gaps[name] > 0.0, f"{name}: full - simple_nn = {gaps[name]:+.4f}"
        else:
            assert gaps[name] >= 0.0, f"{name}: full - simple_nn = {gaps[name]:+.4f}"
        checked.append(name)
    if len(checked) < len(DATASETS):
        _skip_for_standins(battery, checked, gaps, "median F1 full - simple_nn")


# ------------------------------------------------------------- criterion 7

@pytest.mark.slow
def test_criterion_07_magnitude_proximity_reported(battery):
    """Reference deviations are reported honestly; magnitudes checked on real data."""
    for name in DATASETS:
        manifest = json.loads(
            (battery[name]["report_dir"] / "manifest.json").read_text()
        )
        check = manifest["reference_check"][name]
        med = _median_f1(battery[name]["records"], "full")
        assert check["reference_f1"] == pipeline.REFERENCE_F1[name]
        assert check["tolerance"] == pipeline.REFERENCE_TOLERANCE
        assert check["median_f1"] == pytest.approx(med, abs=1e-12)
        assert check["deviation"] == pytest.approx(
            med - pipeline.REFERENCE_F1[name], abs=1e-12
        )
        assert check["within_tolerance"] == (
            abs(check["deviation"]) <= check["tolerance"]
        )

    checked = []
    deviations = {}
    for name in DATASETS:
        deviations[name] = _median_f1(battery[name]["records"], "full") - pipeline.REFERENCE_F1[name]
        if not battery[name]["real"]:
            continue
        assert abs(deviations[name]) <= pipeline.REFERENCE_TOLERANCE, (
            f"{name}: median full F1 deviates {deviations[name]:+.4f} from the reference"
        )
        checked.append(name)
    if len(checked) < len(DATASETS):
        _skip_for_standins(battery, checked, deviations, "median full F1 - reference")


# ------------------------------------------------------------- criterion 8

@pytest.mark.slow
def test_criterion_08_ablation_ordering(battery):
    """Median full F1 >= both single-mechanism ablations on heart and credit."""
    gaps = {}
    for name in DATASETS:
        _assert_battery_sound(name, battery[name]["records"])
        records = battery[name]["records"]
        full = _median_f1(records, "full")
        gaps[name] = min(
            full - _median_f1(records, "random_attention"),
            full - _median_f1(records, "no_cluster_labels"),
        )

    checked = []
    for name in ("heart", "credit"):
        if not battery[name]["real"]:
            continue
        assert gaps[name] >= 0.0, f"{name}: full - worst ablation = {gaps[name]:+.4f}"
        checked.append(name)
    if len(checked) < 2:
        _skip_for_standins(battery, checked, gaps, "median F1 full - worst ablation")


# ------------------------------------------------------------- criterion 9

@pytest.mark.slow
def test_criterion_09_metric_identities(battery):
    """Weighted recall == accuracy exactly; rank AUC == trapezoid AUC."""
    n_reports = 0
    for name in DATASETS:
        for record in battery[name]["records"]:
            for variant, vr in record.variants.items():
                report = vr.report
                assert report.recall == report.accuracy, f"{name}/{variant}"
                points = np.asarray(report.roc_points, dtype=np.float64)
                trapezoid = float(np.trapezoid(points[:, 1], points[:, 0]))
                assert abs(trapezoid - report.auc) <= TOL_AUC, f"{name}/{variant}"
                n_reports += 1
    assert n_reports == len(DATASETS) * BATTERY_SEEDS * len(pipeline.VARIANTS)


# ------------------------------------------------------------ criterion 10

@pytest.mark.slow
def test_criterion_10_rerun_reproduces_metric_csvs(battery, tmp_path):
    """A fresh run with the same config and seed emits byte-identical CSVs."""
    info = battery["diabetes"]
    config = pipeline.ExperimentConfig(
        dataset="diabetes", master_seed=0, n_seeds=BATTERY_SEEDS
    )
    fresh = pipeline.run_experiment(config, info["path"])
    first = pipeline.emit_report([info["records"][0]], tmp_path / "first")
    second = pipeline.emit_report([fresh], tmp_path / "second")
    first_csvs = [Path(p) for p in first if p.endswith(".csv")]
    second_csvs = [Path(p) for p in second if p.endswith(".csv")]
    assert [p.name for p in first_csvs] == [p.name for p in second_csvs]
    assert len(first_csvs) >= 2  # metrics plus at least one ROC dump
    for a, b in zip(first_csvs, second_csvs):
        assert a.read_bytes() == b.read_bytes(), a.name
