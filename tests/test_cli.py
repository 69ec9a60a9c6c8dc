"""CLI contract: exit codes, subcommand outputs, config precedence."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shapgate
from shapgate import cli, dataset, kernel_kmeans, metrics, pipeline, synth
from shapgate.errors import TrainingDivergedError
from shapgate.kernel_kmeans import KernelSpec

FAST = {
    "gbm": {"n_trees": 10, "max_depth": 2},
    "grid": [["linear", 2]],
    "max_epochs": 5,
    "patience": 5,
    "n_seeds": 1,
}


@pytest.fixture(scope="module")
def heart_path(dataset_files):
    return str(dataset_files["heart"][0])


@pytest.fixture()
def fast_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(FAST))
    return str(path)


def test_usage_errors_exit_1(capsys, tmp_path):
    assert cli.main(["run", "--dataset", "nope"]) == 1
    assert cli.main([]) == 1
    assert cli.main(["run", "--dataset", "heart", "--no-such-flag"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["cv", "--dataset", "heart", "--config", str(bad)]) == 1
    unknown = tmp_path / "unknown.json"
    unknown.write_text('{"nope": 1}')
    assert cli.main(["cv", "--dataset", "heart", "--config", str(unknown)]) == 1
    # bad settings stop the run before any data is read or model fitted
    for i, settings in enumerate([
        {"gbm": {"seed": 0}},  # the GBM fit takes no seed
        {"gbm": {"n_trees": -1}},
        {"batch_size": 0},
        {"patience": -1},
        {"holdout_fraction": 1.5},
        {"gbm": {"n_trees": 0}},  # zero trees give all-zero attributions
        # a float or a bool where an integer is expected, and a negative seed
        {"n_seeds": 1.5},
        {"n_folds": 2.5},
        {"batch_size": 2.5},
        {"max_epochs": 1.5},
        {"patience": True},
        {"master_seed": -1},
        {"grid": [["linear", 2.7]]},
        {"gbm": {"n_trees": 2.5}},
        {"gbm": {"max_depth": 2.5}},
        {"gbm": {"min_samples_leaf": 1.5}},
        # a step that is not a finite positive number (JSON NaN and Infinity)
        {"gbm": {"learning_rate": float("inf")}},
        {"gbm": {"learning_rate": float("nan")}},
        {"step_size": float("inf")},
        {"step_size": float("nan")},
        # a bool where a rate is expected
        {"gbm": {"learning_rate": True}},
        {"step_size": True},
        # a grid with no cell, a grid or variant list that is no list, and a
        # kernel label that is no string
        {"grid": []},
        {"grid": 5},
        {"grid": [[5, 2]]},
        {"variants": 5},
        {"variants": "full"},
    ]):
        path = tmp_path / f"settings{i}.json"
        path.write_text(json.dumps(settings))
        assert cli.main(["cv", "--dataset", "heart", "--config", str(path)]) == 1, settings
    assert cli.main(["cv", "--dataset", "heart", "--seed", "-1"]) == 1
    # a variant list that trains nothing, or one variant twice
    assert cli.main(["run", "--dataset", "heart", "--variant", ","]) == 1
    assert cli.main(["run", "--dataset", "heart", "--variant", "full,full"]) == 1
    synth_out = tmp_path / "synth.csv"
    assert cli.main(["synth", "--dataset", "heart", "--out", str(synth_out), "--seed", "-1"]) == 1
    assert not synth_out.exists()
    # kernel labels whose number does not parse or is not finite
    for label in ("rbf_g1e", "rbf_g.", "poly_d2_c1-", "rbf_g1e999", "poly_d2_c1e999"):
        argv = ["cluster", "--dataset", "heart", "--kernel", label, "--k", "3"]
        assert cli.main(argv) == 1, label
    capsys.readouterr()


def test_grid_k_above_fit_fold_exits_1_before_fitting(capsys, tmp_path, heart_path, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("gbm.fit ran before the grid check")

    monkeypatch.setattr(shapgate.gbm, "fit", no_fit)
    path = tmp_path / "big_k.json"
    path.write_text(json.dumps({**FAST, "grid": [["linear", 2], ["linear", 500]]}))
    common = ["--dataset", "heart", "--data-path", heart_path, "--config", str(path)]
    assert cli.main(["cv", *common]) == 1
    assert "grid k [500]" in capsys.readouterr().err
    assert cli.main(["run", *common, "--out", str(tmp_path / "out")]) == 1
    assert cli.main(["cluster", *common, "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()
    capsys.readouterr()


def test_explicit_k_outside_training_rows_exits_1_before_fitting(capsys, tmp_path, heart_path,
                                                                   fast_config, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("gbm.fit ran before the k check")

    monkeypatch.setattr(shapgate.gbm, "fit", no_fit)
    n_train = pipeline.prepare(pipeline.ExperimentConfig(dataset="heart"), heart_path).train_ids.size
    common = ["cluster", "--dataset", "heart", "--data-path", heart_path, "--config", fast_config,
              "--out", str(tmp_path / "out"), "--kernel", "linear"]
    for k in (0, n_train + 1):
        assert cli.main([*common, "--k", str(k)]) == 1
        assert f"k [{k}] outside [1, {n_train}]" in capsys.readouterr().err
    # the largest valid k gets past the check, as far as the first fit
    with pytest.raises(AssertionError, match="gbm.fit ran"):
        cli.main([*common, "--k", str(n_train)])
    assert not (tmp_path / "out").exists()


def test_unwritable_out_exits_1_before_reading_data(capsys, tmp_path, heart_path, monkeypatch):
    def no_read(*args, **kwargs):
        raise AssertionError("data was read before --out was checked")

    monkeypatch.setattr(shapgate.dataset, "load_dataset", no_read)
    monkeypatch.setattr(shapgate.gbm, "fit", no_read)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = str(blocker / "out")  # a file as the parent of --out
    manifest = tmp_path / "manifest.json"
    manifest.write_text("{not json")  # a data error (exit 2) if it were read first
    common = ["--dataset", "heart", "--data-path", heart_path, "--out", out]
    for argv in (
        ["run", *common],
        ["cv", *common],
        ["explain", *common],
        ["cluster", *common],
        ["cluster", *common, "--kernel", "linear", "--k", "2"],
        ["report", "--manifest", str(manifest), "--out", out],
    ):
        assert cli.main(argv) == 1, argv
        assert "not writable" in capsys.readouterr().err
    assert blocker.read_text() == ""


def test_holdout_missing_a_class_exits_2_before_fitting(capsys, tmp_path, heart_path, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("gbm.fit ran before the holdout check")

    monkeypatch.setattr(shapgate.gbm, "fit", no_fit)
    path = tmp_path / "tiny_holdout.json"
    path.write_text(json.dumps({**FAST, "holdout_fraction": 0.001}))
    out = tmp_path / "out"
    assert cli.main(["run", "--dataset", "heart", "--data-path", heart_path,
                     "--config", str(path), "--out", str(out)]) == 2
    assert "no test row" in capsys.readouterr().err
    assert not out.exists()


def test_manifest_of_the_wrong_shape_exits_2(capsys, tmp_path):
    for i, manifest in enumerate([[], {"runs": [{}]}, {"runs": "abc"}]):
        path = tmp_path / f"manifest{i}.json"
        path.write_text(json.dumps(manifest))
        out = tmp_path / f"out{i}"
        assert cli.main(["report", "--manifest", str(path), "--out", str(out)]) == 2, manifest
        assert "data error: manifest" in capsys.readouterr().err
        assert not out.exists()


def _manifest_run():
    """A well-formed manifest run, which report renders."""
    return {
        "dataset": "heart", "master_seed": 0, "selection_seed": 0,
        "n_train": 8, "n_test": 2, "n_features": 3, "chosen_kernel": "linear", "chosen_k": 2,
        "timings": {"prepare": 0.1},
        "grid": [{"kernel": "linear", "k": 2, "mean_f1": 0.5, "fold_f1": [0.5], "error": None}],
        "variants": {"full": {"gate_input_sha256": None, "train_seconds": 0.1, "error": None,
                              "metrics": dict.fromkeys(metrics.REPORTED, 0.5)}},
    }


def _set_dataset(run, value):
    run["dataset"] = value


def _set_metric(run, value):
    run["variants"]["full"]["metrics"][metrics.REPORTED[0]] = value


def _set_train_seconds(run, value):
    run["variants"]["full"]["train_seconds"] = value


def _set_timing(run, value):
    run["timings"]["prepare"] = value


def _set_grid_mean_f1(run, value):
    run["grid"][0]["mean_f1"] = value


def _set_fold_f1(run, value):
    run["grid"][0]["fold_f1"] = [value]


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("corrupt, value, message", [
    (_set_dataset, "../escaped", "dataset '../escaped'"),
    (_set_dataset, 5, "dataset 5"),
    (_set_metric, "0.5", "metric"),
    (_set_metric, None, "metric"),
    (_set_metric, True, "metric"),
    (_set_metric, NAN, "metric"),
    (_set_metric, INF, "metric"),
    (_set_train_seconds, "0.1", "train_seconds"),
    (_set_train_seconds, NAN, "train_seconds"),
    (_set_train_seconds, -INF, "train_seconds"),
    (_set_timing, "0.1", "timing prepare"),
    (_set_timing, NAN, "timing prepare"),
    (_set_timing, INF, "timing prepare"),
    (_set_grid_mean_f1, "0.5", "grid mean_f1"),
    (_set_grid_mean_f1, NAN, "grid mean_f1"),
    (_set_grid_mean_f1, INF, "grid mean_f1"),
    (_set_fold_f1, NAN, "grid fold_f1"),
    (_set_fold_f1, "0.5", "grid fold_f1"),
], ids=["dataset-path", "dataset-int", "metric-str", "metric-null", "metric-bool",
        "metric-nan", "metric-inf", "train-seconds-str", "train-seconds-nan",
        "train-seconds-neg-inf", "timing-str", "timing-nan", "timing-inf", "grid-mean-f1-str",
        "grid-mean-f1-nan", "grid-mean-f1-inf", "fold-f1-nan", "fold-f1-str"])
def test_report_of_a_manifest_with_bad_values_exits_2(capsys, tmp_path, corrupt, value, message):
    run = _manifest_run()
    corrupt(run, value)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"runs": [run]}))
    out = tmp_path / "work" / "out"
    assert cli.main(["report", "--manifest", str(manifest), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "data error: manifest" in err and message in err
    outside = [p for p in tmp_path.rglob("*")
               if p.is_file() and p != manifest and out not in p.parents]
    assert outside == []


def test_missing_data_file_exits_2(capsys, tmp_path):
    missing = str(tmp_path / "nowhere.csv")
    assert cli.main(["run", "--dataset", "heart", "--data-path", missing]) == 2
    err = capsys.readouterr().err
    assert "data error" in err


def test_numerical_failures_exit_3(monkeypatch, capsys, tmp_path, heart_path, fast_config):
    # a finite kernel label whose values overflow on the attributions
    out = tmp_path / "clusters"
    assert cli.main([
        "cluster", "--dataset", "heart", "--data-path", heart_path,
        "--config", fast_config, "--kernel", "poly_d2_c1e200", "--k", "3",
        "--out", str(out),
    ]) == 3
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()

    def boom(args):
        raise TrainingDivergedError(3)

    monkeypatch.setitem(cli._COMMANDS, "cv", boom)
    assert cli.main(["cv", "--dataset", "heart"]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_synth_writes_parseable_file(capsys, tmp_path):
    out = tmp_path / "made.csv"
    assert cli.main(["synth", "--dataset", "diabetes", "--out", str(out)]) == 0
    table = dataset.load_dataset(out, "diabetes")
    assert len(table.rows) == 520

    # pointing --out at a directory uses the published filename
    assert cli.main(["synth", "--dataset", "heart", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "processed.cleveland.data").is_file()
    capsys.readouterr()


def test_synth_failure_leaves_existing_file_untouched(monkeypatch, tmp_path):
    out = tmp_path / "processed.cleveland.data"
    synth.write_synthetic("heart", out)
    before = out.read_bytes()
    real = synth._GENERATORS["heart"]

    def bad_row_partway(rng):
        rows = real(rng)
        rows[150] = [None] * len(rows[150])  # not text: the join fails mid-write
        return rows

    monkeypatch.setitem(synth._GENERATORS, "heart", bad_row_partway)
    with pytest.raises(TypeError):
        synth.write_synthetic("heart", out, seed=7)
    assert out.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [out.name]


def test_run_emits_report_files(capsys, tmp_path, heart_path, fast_config):
    out = tmp_path / "results"
    code = cli.main([
        "run", "--dataset", "heart", "--data-path", heart_path,
        "--config", fast_config, "--seed", "3", "--out", str(out),
        "--variant", "full,simple_nn",
    ])
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert "heart_metrics.csv" in names
    assert "summary.md" in names and "manifest.json" in names
    assert "heart_roc_full.csv" in names and "heart_roc_simple_nn.csv" in names
    manifest = json.loads((out / "manifest.json").read_text())
    run = manifest["runs"][0]
    assert run["master_seed"] == 3
    assert sorted(run["variants"]) == ["full", "simple_nn"]
    assert "chosen kernel=" in capsys.readouterr().out


def test_cv_writes_grid_csv(capsys, tmp_path, heart_path, fast_config):
    out = tmp_path / "cv"
    code = cli.main([
        "cv", "--dataset", "heart", "--data-path", heart_path,
        "--config", fast_config, "--out", str(out),
    ])
    assert code == 0
    lines = (out / "heart_cv_grid.csv").read_text().splitlines()
    assert lines[0] == "kernel,k,mean_f1,fold_f1,error"
    assert len(lines) == 1 + len(FAST["grid"])
    assert "linear" in capsys.readouterr().out


def test_cv_shows_error_of_cell_that_failed_after_a_fold(capsys, tmp_path, heart_path,
                                                         monkeypatch):
    calls = []
    real_train = shapgate.network.train

    def fail_second_call(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise TrainingDivergedError(3)
        return real_train(*args, **kwargs)

    monkeypatch.setattr(shapgate.network, "train", fail_second_call)
    path = tmp_path / "two_cells.json"
    path.write_text(json.dumps({**FAST, "grid": [["linear", 2], ["linear", 3]]}))
    argv = ["cv", "--dataset", "heart", "--data-path", heart_path, "--config", str(path)]
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    failed = next(line for line in lines if line.split()[:2] == ["linear", "2"])
    # the one fold that finished shows its F1, then the reason the cell failed
    kernel, k, mean_f1, fold_f1, error = failed.split(maxsplit=4)
    assert (mean_f1, error) == ("nan", "training loss became non-finite at epoch 3")
    assert 0.0 <= float(fold_f1) <= 1.0


def test_explain_writes_shap_matrices(capsys, tmp_path, heart_path, fast_config):
    out = tmp_path / "shap"
    code = cli.main([
        "explain", "--dataset", "heart", "--data-path", heart_path,
        "--config", fast_config, "--out", str(out),
    ])
    assert code == 0
    train = (out / "heart_shap_train.csv").read_text().splitlines()
    test = (out / "heart_shap_test.csv").read_text().splitlines()
    assert train[0] == test[0] and train[0].endswith(",base_value")
    assert len(train) + len(test) == 303 + 2
    capsys.readouterr()


def test_cluster_with_explicit_kernel_and_k(capsys, tmp_path, heart_path, fast_config):
    out = tmp_path / "clusters"
    argv = [
        "cluster", "--dataset", "heart", "--data-path", heart_path,
        "--config", fast_config, "--kernel", "rbf_g0.1", "--k", "3",
        "--out", str(out),
    ]
    assert cli.main(argv) == 0
    lines = (out / "heart_clusters.csv").read_text().splitlines()
    assert lines[0] == "row,split,cluster"
    assert len(lines) == 304
    labels = {line.split(",")[2] for line in lines[1:]}
    assert labels <= {"0", "1", "2"}
    assert {line.split(",")[1] for line in lines[1:]} == {"train", "test"}
    capsys.readouterr()

    # the same assignments as the final cluster refit of run_final
    config = cli.load_config(cli.build_parser().parse_args(argv))
    prepared = pipeline.prepare(config, heart_path)
    core = pipeline.fit_core(prepared, config)
    spec = kernel_kmeans.spec_from_label("rbf_g0.1")
    model, _ = pipeline.run_final(prepared, core, spec, 3, config)
    test_assignment = kernel_kmeans.assign_batch(model, core.shap_test.values)
    expected = ["row,split,cluster"]
    expected += [f"{r},train,{c}" for r, c in zip(prepared.train_ids, model.assignment)]
    expected += [f"{r},test,{c}" for r, c in zip(prepared.test_ids, test_assignment)]
    assert lines == expected


def test_cluster_requires_kernel_and_k_together(capsys, heart_path):
    code = cli.main([
        "cluster", "--dataset", "heart", "--data-path", heart_path,
        "--kernel", "linear",
    ])
    assert code == 1
    assert "usage error" in capsys.readouterr().err


def test_report_rerenders_metrics_from_manifest(capsys, tmp_path, heart_path, fast_config):
    out = tmp_path / "results"
    assert cli.main([
        "run", "--dataset", "heart", "--data-path", heart_path,
        "--config", fast_config, "--out", str(out),
    ]) == 0
    rendered = tmp_path / "rendered"
    assert cli.main([
        "report", "--manifest", str(out / "manifest.json"), "--out", str(rendered),
    ]) == 0
    assert (rendered / "heart_metrics.csv").read_bytes() == (out / "heart_metrics.csv").read_bytes()
    assert not list(rendered.glob("*_roc_*.csv"))
    capsys.readouterr()


def test_config_precedence_flags_over_file_over_defaults(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "master_seed": 11,
        "n_folds": 4,
        "gbm": {"n_trees": 7},
        "grid": [["poly_d2_c1", 4], ["rbf_g0.1", 3]],
        "variants": ["full"],
    }))
    args = cli.build_parser().parse_args(
        ["run", "--dataset", "credit", "--config", str(path), "--seed", "99"]
    )
    config = cli.load_config(args)
    assert config.dataset == "credit"
    assert config.master_seed == 99  # flag beats file
    assert config.n_folds == 4  # file beats default
    assert config.max_epochs == 200  # default survives
    assert config.gbm_config.n_trees == 7
    assert config.grid == [
        (KernelSpec("polynomial", degree=2, coef0=1.0), 4),
        (KernelSpec("radial", gamma=0.1), 3),
    ]
    assert config.variants == ("full",)


def test_run_bytes_independent_of_blas_threads(tmp_path, heart_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**FAST, "grid": [["linear", 2], ["rbf_g0.1", 3]]}))
    src = str(Path(shapgate.__file__).resolve().parents[1])
    csvs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run(
            [sys.executable, "-m", "shapgate", "run", "--dataset", "heart",
             "--data-path", heart_path, "--config", str(config), "--out", str(out)],
            env=env, check=True, capture_output=True, timeout=300,
        )
        csvs[threads] = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
    assert len(csvs["1"]) == 5  # metrics table + one ROC curve per variant
    assert csvs["1"] == csvs["2"]
