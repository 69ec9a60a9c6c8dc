"""CLI contract: exit codes, subcommand outputs, config precedence."""

import copy
import errno
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import shapgate
from oracles import assert_no_child
from shapgate import cli, dataset, kernel_kmeans, metrics, pipeline, seeds, synth
from shapgate.errors import (DataError, NumericalError, ParseError, TrainingDivergedError,
                             UsageError, WorkerDiedError)
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


@pytest.mark.parametrize("column", [14, 1], ids=["label", "age"])
def test_a_non_finite_cell_exits_2_with_one_line_naming_it(capsys, tmp_path, heart_path,
                                                           fast_config, column):
    lines = Path(heart_path).read_text().split("\n")
    cells = lines[2].split(",")
    cells[column - 1] = "inf"
    lines[2] = ",".join(cells)
    path = tmp_path / "processed.cleveland.data"
    path.write_text("\n".join(lines))
    out = tmp_path / "out"
    assert cli.main(["explain", "--dataset", "heart", "--data-path", str(path),
                     "--config", fast_config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1 and "Traceback" not in err
    assert err.endswith(f"(line 3, column {column})\n")
    assert not out.exists()


def test_a_column_that_overflows_when_scaled_exits_2_with_one_line_naming_it(
        capsys, tmp_path, heart_path, fast_config):
    # 1e200 is finite, but its square overflows the training std
    lines = Path(heart_path).read_text().split("\n")
    cells = lines[2].split(",")
    cells[0] = "1e200"
    lines[2] = ",".join(cells)
    path = tmp_path / "processed.cleveland.data"
    path.write_text("\n".join(lines))
    out = tmp_path / "out"
    assert cli.main(["explain", "--dataset", "heart", "--data-path", str(path),
                     "--config", fast_config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "data error: continuous column 'age' overflows when scaled\n"
    assert not out.exists()


def test_a_class_too_small_for_the_folds_fails_only_the_commands_that_fold(
        capsys, tmp_path, heart_few_positives, fast_config, monkeypatch):
    common = ["--dataset", "heart", "--data-path", str(heart_few_positives),
              "--config", fast_config]
    assert cli.main(["explain", *common, "--out", str(tmp_path / "explain")]) == 0
    assert cli.main(["cluster", *common, "--kernel", "linear", "--k", "2",
                     "--out", str(tmp_path / "cluster")]) == 0

    def no_fit(*args, **kwargs):
        raise AssertionError("gbm.fit ran before the fold check")

    monkeypatch.setattr(shapgate.gbm, "fit", no_fit)
    capsys.readouterr()
    assert cli.main(["cv", *common, "--out", str(tmp_path / "cv")]) == 2
    err = capsys.readouterr().err
    assert err == "data error: class 1 has 4 training members; need at least n_folds+1 = 6\n"
    assert not (tmp_path / "cv").exists()


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


def _set_at(run, path, value):
    node = run
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


def _setter(*path):
    """A corrupt(run, value) that puts value at path in the run."""
    return lambda run, value: _set_at(run, path, value)


def _rename_full(run, value):
    run["variants"] = {value: run["variants"]["full"]}


def _set_every_metric_of_two_runs(run, value):
    run["variants"]["full"]["metrics"] = dict.fromkeys(metrics.REPORTED, value)
    return [run, run]


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("corrupt, value, message", [
    (_set_dataset, "../escaped", "dataset '../escaped'"),
    (_set_dataset, 5, "dataset 5"),
    (_set_metric, "0.5", "metric"),
    (_set_metric, None, "metric"),
    (_set_metric, True, "metric"),
    (_set_metric, NAN, "metric"),
    (_set_metric, INF, "metric"),
    (_set_metric, 1.5, "metric"),
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
    (_setter("master_seed"), NAN, "master_seed"),
    (_setter("chosen_k"), INF, "chosen_k"),
    (_setter("n_train"), 2.5, "n_train"),
    (_setter("n_test"), -3, "n_test"),
    (_setter("n_features"), True, "n_features"),
    (_setter("selection_seed"), "x", "selection_seed"),
    (_setter("grid", 0, "k"), NAN, "grid k"),
    (_setter("grid", 0, "kernel"), "rbf_gx", "grid kernel"),
    (_setter("variants", "full", "error"), {"a": 1}, "error"),
    # report renders only the variants it knows
    (_rename_full, "ful", "variants ['ful'] is not one or more of"),
    (_setter("variants"), {}, "variants [] is not one or more of"),
    # the median of two 1.7e308s overflows to inf
    (_set_every_metric_of_two_runs, 1.7e308, "metric"),
], ids=["dataset-path", "dataset-int", "metric-str", "metric-null", "metric-bool",
        "metric-nan", "metric-inf", "metric-above-1", "train-seconds-str", "train-seconds-nan",
        "train-seconds-neg-inf", "timing-str", "timing-nan", "timing-inf", "grid-mean-f1-str",
        "grid-mean-f1-nan", "grid-mean-f1-inf", "fold-f1-nan", "fold-f1-str", "master-seed-nan",
        "chosen-k-inf", "count-float", "count-negative", "count-bool", "count-str", "grid-k-nan",
        "grid-kernel-not-a-label", "error-not-a-string", "variant-not-a-name", "no-variant",
        "two-runs-metrics-overflow-median"])
def test_report_of_a_manifest_with_bad_values_exits_2(capsys, tmp_path, corrupt, value, message):
    run = _manifest_run()
    runs = corrupt(run, value) or [run]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"runs": runs}))
    out = tmp_path / "work" / "out"
    assert cli.main(["report", "--manifest", str(manifest), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "data error: manifest" in err and message in err
    outside = [p for p in tmp_path.rglob("*")
               if p.is_file() and p != manifest and out not in p.parents]
    assert outside == []


def _paths(node, prefix=()):
    """The path of every value inside a manifest run, containers included."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _no_constant(name):
    raise ValueError(f"{name} is not strict JSON")


_CORRUPTIONS = st.one_of(
    st.text(max_size=6), st.none(), st.booleans(), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    st.sampled_from([NAN, INF, -INF]), st.integers(max_value=-1),
    st.floats(min_value=1.0, exclude_min=True), st.floats(max_value=0.0, exclude_max=True),
)


@settings(max_examples=200, deadline=None)
@given(path=st.sampled_from(list(_paths(_manifest_run()))), value=_CORRUPTIONS)
def test_report_of_a_corrupted_manifest_exits_2_or_round_trips(path, value):
    # one corrupted field either stops report with exit 2, writing nothing, or
    # renders a strict-JSON manifest that renders again to the same bytes
    run = _manifest_run()
    _set_at(run, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        manifest, first, second = Path(tmp, "manifest.json"), Path(tmp, "a"), Path(tmp, "b")
        manifest.write_text(json.dumps({"runs": [run]}))
        code = cli.main(["report", "--manifest", str(manifest), "--out", str(first)])
        assert code in (0, 2)
        if code == 2:
            assert not first.exists()
            return
        json.loads((first / "manifest.json").read_text(), parse_constant=_no_constant)
        assert cli.main(["report", "--manifest", str(first / "manifest.json"),
                         "--out", str(second)]) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name


# a corrupted value: a wrong type, a bool, NaN, +-Infinity, zero, a negative
# number or an empty list
_CONFIG_CORRUPTIONS = ("x", None, {}, 1.5, True, False, NAN, INF, -INF, 0, -1, [])
_BAD_KERNEL_LABELS = ("sigmoid", "rbf_g0", "rbf_g-1", "rbf_ginf", "rbf_g1e999", "poly_d0_c1",
                      "poly_d2_cnan")


@st.composite
def tiny_run_configs(draw):
    """A valid config of a tiny heart run: 10 trees, one grid cell, 2 epochs,
    one seed."""
    return {
        "master_seed": draw(st.integers(0, 3)),
        "n_seeds": 1,
        "holdout_fraction": draw(st.sampled_from([0.2, 0.3])),
        "n_folds": draw(st.integers(2, 3)),
        "gbm": {"n_trees": 10, "learning_rate": draw(st.sampled_from([0.1, 0.3])),
                "max_depth": draw(st.integers(1, 3)), "min_samples_leaf": draw(st.integers(1, 5))},
        "grid": [[draw(st.sampled_from(["linear", "poly_d2_c1", "rbf_g0.1"])), draw(st.integers(2, 3))]],
        "step_size": draw(st.sampled_from([1e-3, 1e-2])),
        "batch_size": draw(st.integers(16, 64)),
        "max_epochs": 2,
        "patience": draw(st.integers(0, 2)),
        "variants": draw(st.lists(st.sampled_from(pipeline.VARIANTS), min_size=1, max_size=4,
                                  unique=True)),
    }


def _with_one_corruption(config):
    """The config, then a copy per single corruption: each corrupted value at
    each path, each variant repeated and each bad kernel label."""
    yield config
    for path in _paths(config):
        for value in _CONFIG_CORRUPTIONS:
            bad = copy.deepcopy(config)
            _set_at(bad, path, value)
            yield bad
    for variant in config["variants"]:
        yield {**config, "variants": [*config["variants"], variant]}
    for label in _BAD_KERNEL_LABELS:
        yield {**config, "grid": [[label, config["grid"][0][1]]]}


# no shrink phase: the failing run's config is in the assertion message, and
# each shrink step would sweep the corruptions again
@pytest.mark.slow
@settings(max_examples=5, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(config=tiny_run_configs())
def test_every_usage_error_of_a_config_comes_before_any_fit(heart_path, config):
    # each config with at most one corruption runs with a documented exit
    # code, never a traceback, and an exit 1 comes before the first gbm.fit.
    # Every corruption is tried on each draw: a few hundred random ones would
    # miss a given (path, value) pair about a third of the time
    calls = []
    fit = shapgate.gbm.fit
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(shapgate.gbm, "fit", lambda *args: calls.append(args) or fit(*args))
        path = Path(tmp, "config.json")
        for run in _with_one_corruption(config):
            calls.clear()
            path.write_text(json.dumps(run))
            code = cli.main(["run", "--dataset", "heart", "--data-path", heart_path,
                             "--config", str(path), "--out", str(Path(tmp, "out"))])
            assert code in (0, 1, 2, 3), run
            if code == 1:
                assert calls == [], run


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


@pytest.mark.parametrize(("error", "code", "prefix"), [
    (UsageError("u"), 1, "usage error"),
    (DataError("d"), 2, "data error"),
    (ParseError("bad cell", 3, 2), 2, "data error"),
    (NumericalError("n"), 3, "numerical failure"),
    (TrainingDivergedError(3), 3, "numerical failure"),
    (WorkerDiedError("w"), 4, "worker failure"),
])
def test_each_package_error_exits_with_its_code_and_one_line(monkeypatch, capsys, error, code,
                                                              prefix):
    def boom(args):
        raise error

    monkeypatch.setitem(cli._COMMANDS, "cv", boom)
    assert cli.main(["cv", "--dataset", "heart"]) == code
    assert capsys.readouterr().err == f"{prefix}: {error}\n"


def test_run_into_an_output_that_is_a_directory_exits_1_and_changes_nothing(
        capsys, tmp_path, heart_path, fast_config):
    out = tmp_path / "results"
    (out / "heart_roc_full.csv").mkdir(parents=True)
    (out / "heart_metrics.csv").write_text("old\n")

    def listing():
        return sorted((str(p.relative_to(out)), p.is_dir() or p.read_bytes())
                      for p in out.rglob("*"))

    before = listing()
    code = cli.main(["run", "--dataset", "heart", "--data-path", heart_path,
                     "--config", fast_config, "--variant", "full", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("usage error:") and err.count("\n") == 1 and "Traceback" not in err
    assert "not writable" in err and "heart_roc_full.csv" in err
    assert listing() == before


def test_explain_that_fails_on_its_test_csv_writes_no_train_csv(capsys, tmp_path, heart_path,
                                                               fast_config, monkeypatch):
    real_open = open

    def no_space_for_the_test_csv(path, *args, **kwargs):
        if os.path.basename(path).startswith(".heart_shap_test.csv."):
            raise OSError(errno.ENOSPC, "No space left on device", path)
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(pipeline, "open", no_space_for_the_test_csv, raising=False)
    out = tmp_path / "shap"
    assert cli.main(["explain", "--dataset", "heart", "--data-path", heart_path,
                     "--config", fast_config, "--out", str(out)]) == 1
    assert "not writable" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_synth_writes_parseable_file(capsys, tmp_path):
    out = tmp_path / "made.csv"
    assert cli.main(["synth", "--dataset", "diabetes", "--out", str(out)]) == 0
    table = dataset.load_dataset(out, "diabetes")
    assert table.n_rows == 520

    # pointing --out at a directory uses the published filename
    assert cli.main(["synth", "--dataset", "heart", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "processed.cleveland.data").is_file()
    # a missing directory is made, whether --out names it or a file in it
    assert cli.main(["synth", "--dataset", "heart", "--out", str(tmp_path / "new") + os.sep]) == 0
    assert cli.main(["synth", "--dataset", "heart", "--out", str(tmp_path / "a" / "b.csv")]) == 0
    assert ((tmp_path / "new" / "processed.cleveland.data").read_bytes()
            == (tmp_path / "a" / "b.csv").read_bytes()
            == (tmp_path / "processed.cleveland.data").read_bytes())
    capsys.readouterr()


def test_synth_failure_leaves_existing_file_untouched(monkeypatch, tmp_path):
    out = tmp_path / "processed.cleveland.data"
    synth.write_synthetic("heart", out, synth.STANDIN_SEED)
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
    # the network of linear k=2 at fold 1 diverges, wherever its cell runs
    real_train = shapgate.network.train
    failing_seed = pipeline.child_seed(0, 4, seeds.content_tag("linear"), 2, 1)

    def fail_second_fold(fit_batch, y_fit, val_batch, y_val, config):
        if config.seed == failing_seed:
            raise TrainingDivergedError(3)
        return real_train(fit_batch, y_fit, val_batch, y_val, config)

    monkeypatch.setattr(shapgate.network, "train", fail_second_fold)
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


def test_run_outputs_do_not_depend_on_the_process_count(capsys, tmp_path, heart_path,
                                                        monkeypatch):
    # three cells; the second, which two processes deal to the forked
    # worker, fails on its one-hot width, which no final fit shares
    real_train = shapgate.network.train

    def diverge_at_k3(fit_batch, y_fit, val_batch, y_val, config):
        if fit_batch.onehot is not None and fit_batch.onehot.shape[1] == 3:
            raise TrainingDivergedError(2)
        return real_train(fit_batch, y_fit, val_batch, y_val, config)

    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(None)
        return real_fork()

    monkeypatch.setattr(shapgate.network, "train", diverge_at_k3)
    monkeypatch.setattr(os, "fork", counted_fork)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**FAST, "n_seeds": 3,
                                  "grid": [["linear", 2], ["rbf_g0.1", 3], ["poly_d2_c1", 4]]}))
    outputs = {}
    for processes in (1, 2):
        out = tmp_path / f"processes{processes}"
        forks.clear()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=processes: set(range(n)),
                            raising=False)
        assert cli.main(["run", "--dataset", "heart", "--data-path", heart_path,
                         "--config", str(config), "--out", str(out)]) == 0
        # one fork per map: the grid, the first seed's variants and seeds 2..3
        assert len(forks) == 3 * (processes - 1)
        manifest = json.loads((out / "manifest.json").read_text())
        for run in manifest["runs"]:
            del run["timings"]
            for variant in run["variants"].values():
                del variant["train_seconds"]
        outputs[processes] = ({p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}, manifest)
    assert_no_child()
    csvs, manifest = outputs[1]
    assert len(csvs) == 5  # metrics table + one ROC curve per variant
    grid = manifest["runs"][0]["grid"]
    assert [c["error"] is None for c in grid] == [True, False, True]
    assert "non-finite" in grid[1]["error"]
    assert outputs[2] == outputs[1]
    capsys.readouterr()


def test_a_dead_worker_exits_4_and_no_process_outlives_it(capsys, tmp_path, heart_path,
                                                           monkeypatch):
    # the second cell is the forked worker's share; the worker kills itself
    caller = os.getpid()
    real_cell = pipeline._grid_cell

    def die_outside_the_caller(*args):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return real_cell(*args)

    # two processes: two usable cores
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(pipeline, "_grid_cell", die_outside_the_caller)
    path = tmp_path / "two_cells.json"
    path.write_text(json.dumps({**FAST, "grid": [["linear", 2], ["linear", 3]]}))
    argv = ["cv", "--dataset", "heart", "--data-path", heart_path, "--config", str(path)]
    assert cli.main(argv) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("worker failure: ")
    assert_no_child()


def test_a_dead_worker_ends_the_map_before_the_callers_next_call(capsys, tmp_path, heart_path,
                                                                monkeypatch):
    # three cells over two processes: the caller's share is the first and
    # the third, the worker's the second; the worker kills itself, and the
    # caller's first cell returns only once the worker has ended, which
    # WNOWAIT leaves waitable for the map
    caller = os.getpid()
    real_cell = pipeline._grid_cell
    ended, ran = [], []

    def die_outside_the_caller(folds, spec, k, config):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        ran.append(k)
        cell = real_cell(folds, spec, k, config)
        deadline = time.monotonic() + 60
        while not ended and time.monotonic() < deadline:
            info = os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
            if info is None:
                time.sleep(0.01)
            else:
                ended.append(info)
        return cell

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(pipeline, "_grid_cell", die_outside_the_caller)
    path = tmp_path / "three_cells.json"
    path.write_text(json.dumps({**FAST, "grid": [["linear", 2], ["linear", 3], ["linear", 4]]}))
    argv = ["cv", "--dataset", "heart", "--data-path", heart_path, "--config", str(path)]
    assert cli.main(argv) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("worker failure: ")
    assert "killed by signal 9" in err[0]
    assert_no_child()
    assert len(ended) == 1
    assert (ended[0].si_code, ended[0].si_status) == (os.CLD_KILLED, signal.SIGKILL)
    assert ran == [2]  # the caller's second cell never ran


NUMPY_MA_PROBE = """
import json
import os
import sys

# two processes: two usable cores, with OpenBLAS at its own thread count
os.sched_getaffinity = lambda pid: {0, 1}
forks = []
real_fork = os.fork


def counted_fork():
    forks.append(None)
    return real_fork()


os.fork = counted_fork

import numpy

bare = "numpy.ma" in sys.modules
from shapgate import cli

data, config, out = sys.argv[1:]
argv = ["run", "--dataset", "heart", "--data-path", data, "--config", config, "--out", out]
assert cli.main(argv) == 0
assert cli.main(["report", "--manifest", out + "/manifest.json", "--out", out + "/report"]) == 0
pools = sorted(name for name in sys.modules
               if name.split(".")[0] == "multiprocessing" or name.startswith("concurrent.futures"))
print(json.dumps([bare, "numpy.ma" in sys.modules, len(forks), pools]))
"""


def test_run_and_report_never_load_numpy_ma(tmp_path, heart_path, fast_config):
    # numpy 2 loads numpy.ma, about a megabyte, the first time np.median or a
    # plain np.unique runs; numpy 1.x loads it with numpy itself. The run is
    # dealt over two processes, and the map loads no process pool either.
    src = str(Path(shapgate.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_MA_PROBE, heart_path, fast_config, str(tmp_path / "out")],
        env=env, check=True, capture_output=True, text=True, timeout=300,
    )
    bare, loaded, forks, pools = json.loads(done.stdout.splitlines()[-1])
    assert forks >= 1  # the variants map ran on two processes
    assert pools == []
    if bare:
        pytest.skip("a bare import numpy loads numpy.ma")
    assert not loaded


def test_run_cv_and_cluster_make_one_selection(capsys, tmp_path, heart_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**FAST, "grid": [["linear", 2], ["rbf_g0.1", 3]]}))
    common = ["--dataset", "heart", "--data-path", heart_path, "--config", str(config)]
    capsys.readouterr()

    assert cli.main(["cv", *common, "--out", str(tmp_path / "cv")]) == 0
    starred = [line.split()[:2] for line in capsys.readouterr().out.splitlines()
               if line.endswith(" *")]
    assert len(starred) == 1
    from_cv = (starred[0][0], int(starred[0][1]))

    assert cli.main(["cluster", *common, "--out", str(tmp_path / "clusters")]) == 0
    selected = capsys.readouterr().out.splitlines()[0].split()
    assert selected[0] == "selected" and selected[3:] == ["by", "cross-validation"]
    from_cluster = (selected[1].removeprefix("kernel="), int(selected[2].removeprefix("k=")))

    assert cli.main(["run", *common, "--seeds", "1", "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    run = json.loads((tmp_path / "run" / "manifest.json").read_text())["runs"][0]
    assert from_cv == from_cluster == (run["chosen_kernel"], run["chosen_k"])

    # the cv grid CSV holds the grid cells of the run's manifest
    rows = [line.split(",") for line in
            (tmp_path / "cv" / "heart_cv_grid.csv").read_text().splitlines()[1:]]
    assert [(kernel, int(k), float(mean_f1), [float(v) for v in fold_f1.split(";")], error or None)
            for kernel, k, mean_f1, fold_f1, error in rows] == [
        (c["kernel"], c["k"], c["mean_f1"], c["fold_f1"], c["error"]) for c in run["grid"]]


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
    for name in ("heart_metrics.csv", "summary.md", "manifest.json"):
        assert (rendered / name).read_bytes() == (out / name).read_bytes(), name
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
