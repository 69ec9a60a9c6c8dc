import numpy as np
import pytest

from shapgate import dataset as ds
from shapgate.errors import DataError, ParseError


def _toy_table(rows, kinds, names=None, labels=None):
    names = names or [f"c{i}" for i in range(len(kinds))]
    return ds.RawTable(
        rows=[list(r) for r in rows],
        labels=labels if labels is not None else [0, 1] * (len(rows) // 2) + [0] * (len(rows) % 2),
        column_names=names,
        column_kinds=kinds,
    )


# ---------------------------------------------------------------- loading

def test_load_diabetes_shape(dataset_files):
    path, _ = dataset_files["diabetes"]
    table = ds.load_dataset(path, "diabetes")
    assert table.n_rows == 520
    assert table.n_columns == 16
    assert set(table.labels) == {0, 1}


def test_load_heart_shape(dataset_files):
    path, _ = dataset_files["heart"]
    table = ds.load_dataset(path, "heart")
    assert table.n_rows == 303
    assert table.n_columns == 13


def test_load_credit_shape(dataset_files):
    path, _ = dataset_files["credit"]
    table = ds.load_dataset(path, "credit")
    assert table.n_rows == 690
    # the published file has 15 feature columns (A1-A15)
    assert table.n_columns == 15


def test_empty_file_is_parse_error(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(ParseError):
        ds.load_dataset(p, "heart")


def test_ragged_row_names_line(tmp_path):
    p = tmp_path / "bad.data"
    p.write_text("63.0,1.0,1.0\n")
    with pytest.raises(ParseError, match="line 1"):
        ds.load_dataset(p, "heart")


def test_unknown_schema_rejected(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("a,b\n")
    with pytest.raises(DataError, match="unknown schema"):
        ds.load_dataset(p, "wine")


def test_heart_label_binarization(tmp_path):
    row = "63.0,1.0,1.0,145.0,233.0,1.0,2.0,150.0,0.0,2.3,3.0,0.0,6.0"
    lines = [f"{row},{g}" for g in (0, 1, 2, 3, 4)] * 3
    p = tmp_path / "h.data"
    p.write_text("\n".join(lines) + "\n")
    table = ds.load_dataset(p, "heart")
    assert table.labels == [0, 1, 1, 1, 1] * 3


SWEEP_VALUES = ["inf", "-inf", "nan", "1e309", "1.7", "-1", "", " "]


@pytest.mark.parametrize("value", SWEEP_VALUES, ids=repr)
@pytest.mark.parametrize("name", ["diabetes", "heart", "credit"])
def test_one_bad_cell_loads_or_is_a_parse_error_at_its_line(tmp_path, dataset_files, name, value):
    # every column of one data row in turn; a numpy warning fails the test
    lines = dataset_files[name][0].read_text().split("\n")
    lineno = 3 + ds.SCHEMAS[name].has_header  # physical line of the third data row
    cells = lines[lineno - 1].split(",")
    path = tmp_path / ds.SCHEMAS[name].default_filename
    for col, kind in enumerate(ds.SCHEMAS[name].column_kinds):
        edited = cells[:col] + [value] + cells[col + 1:]
        path.write_text("\n".join(lines[:lineno - 1] + [",".join(edited)] + lines[lineno:]))
        fault = kind == ds.LABEL or (kind == ds.CONTINUOUS and value not in ("1.7", "-1"))
        try:
            table, _ = ds.handle_missing(ds.load_dataset(path, name))
            ds.fit_transform(table, range(table.n_rows))
        except ParseError as e:
            assert fault and (e.line, e.column) == (lineno, col + 1), (col, value, e)
        else:
            assert not fault, (col, value)


def test_heart_grade_must_be_an_integer_from_0_to_4(tmp_path):
    row = "63.0,1.0,1.0,145.0,233.0,1.0,2.0,150.0,0.0,2.3,3.0,0.0,6.0"
    p = tmp_path / "h.data"
    p.write_text(f"{row},0\n{row},4.0\n")
    assert ds.load_dataset(p, "heart").labels == [0, 1]
    p.write_text(f"{row},0\n{row},4\n{row},-0.5\n")  # not truncated to grade 0
    with pytest.raises(ParseError, match=r"is not one of 0-4 \(line 3, column 14\)"):
        ds.load_dataset(p, "heart")


def test_parse_errors_name_the_physical_line(tmp_path):
    row = "63.0,1.0,1.0,145.0,233.0,1.0,2.0,150.0,0.0,2.3,3.0,0.0,6.0,0"
    p = tmp_path / "h.data"
    p.write_text("\n".join([row, row, row, "", "  ", row, "63.0,1.0", row]) + "\n")
    with pytest.raises(ParseError) as raised:
        ds.load_dataset(p, "heart")
    assert raised.value.line == 7


def test_a_blank_first_line_keeps_the_diabetes_lines_physical(tmp_path, dataset_files):
    lines = dataset_files["diabetes"][0].read_text().split("\n")
    p = tmp_path / "d.csv"
    p.write_text("\n".join([""] + lines))
    assert ds.load_dataset(p, "diabetes") == ds.load_dataset(dataset_files["diabetes"][0], "diabetes")
    p.write_text("\n".join(["", "Age," + lines[0]] + lines[1:]))
    with pytest.raises(ParseError, match="header mismatch") as raised:
        ds.load_dataset(p, "diabetes")
    assert raised.value.line == 2
    p.write_text("\n".join(["", lines[0], lines[1], "40,Male"] + lines[2:]))
    with pytest.raises(ParseError, match="expected 17 columns") as raised:
        ds.load_dataset(p, "diabetes")
    assert raised.value.line == 4
    p.write_text("\n" + lines[0] + "\n\n")
    with pytest.raises(ParseError, match="no data rows") as raised:
        ds.load_dataset(p, "diabetes")
    assert raised.value.line == 3


def test_a_file_that_is_not_utf8_is_a_data_error(tmp_path):
    p = tmp_path / "h.data"
    p.write_bytes(b"63.0,1.0,\xff\n")
    with pytest.raises(DataError, match="cannot read"):
        ds.load_dataset(p, "heart")


# ---------------------------------------------------------------- missing

def test_handle_missing_identity():
    t = _toy_table([["a", "1"], ["b", "2"], ["a", "3"], ["a", "4"]], ["categorical", "continuous"])
    out, n = ds.handle_missing(t)
    assert n == 0
    assert out.rows == t.rows


def test_mode_imputation_forced():
    t = _toy_table([["a"], ["a"], ["b"], ["?"]], ["categorical"])
    out, n = ds.handle_missing(t)
    assert n == 1
    assert out.rows[3] == ["a"]


def test_median_imputation_forced():
    t = _toy_table([["1"], ["3"], ["?"], ["5"]], ["continuous"])
    out, n = ds.handle_missing(t)
    assert n == 1
    assert float(out.rows[2][0]) == 3.0


def test_entirely_missing_column_rejected():
    t = _toy_table([["?"], ["?"]], ["categorical"])
    with pytest.raises(DataError, match="entirely missing"):
        ds.handle_missing(t)


def test_input_table_not_mutated():
    t = _toy_table([["a"], ["?"]], ["categorical"])
    ds.handle_missing(t)
    assert t.rows[1] == ["?"]


# ---------------------------------------------------------------- fit_transform

def test_zscore_population_std():
    t = _toy_table([["1"], ["2"], ["3"]], ["continuous"], labels=[0, 1, 0])
    fm = ds.fit_transform(t, [0, 1, 2])
    expected = np.array([-1.224744871391589, 0.0, 1.224744871391589])
    np.testing.assert_allclose(fm.values[:, 0], expected, atol=1e-12)


def test_two_level_onehot():
    t = _toy_table([["yes"], ["no"], ["yes"]], ["categorical"], labels=[0, 1, 0])
    fm = ds.fit_transform(t, [0, 1, 2])
    assert fm.values.shape == (3, 2)
    np.testing.assert_array_equal(fm.values.sum(axis=1), [1, 1, 1])
    assert fm.feature_names == ["c0=yes", "c0=no"]


def test_test_row_at_training_mean_scales_to_zero():
    t = _toy_table([["1"], ["3"], ["2"]], ["continuous"], labels=[0, 1, 0])
    fm = ds.fit_transform(t, [0, 1])  # training mean = 2
    assert fm.values[2, 0] == pytest.approx(0.0, abs=1e-12)


def test_scaler_fit_only_on_training_rows():
    t = _toy_table([["0"], ["10"], ["1000"]], ["continuous"], labels=[0, 1, 0])
    fm = ds.fit_transform(t, [0, 1])  # training mean 5, population std 5
    np.testing.assert_allclose(fm.values[:, 0], [-1.0, 1.0, 199.0], atol=1e-12)


def test_zero_variance_column_named():
    t = _toy_table([["2", "1"], ["2", "5"], ["2", "9"]], ["continuous", "continuous"],
                   names=["flat", "ok"], labels=[0, 1, 0])
    with pytest.raises(DataError, match="flat"):
        ds.fit_transform(t, [0, 1, 2])


def test_roundtrip_train_mean_std(tables):
    for name, table in tables.items():
        n = table.n_rows
        train = list(range(0, n, 2))
        fm = ds.fit_transform(table, train)
        continuous = {name for name, kind in zip(table.column_names, table.column_kinds)
                      if kind == ds.CONTINUOUS}
        cont_cols = [j for j, name in enumerate(fm.feature_names) if name in continuous]
        sub = fm.values[np.asarray(train)][:, cont_cols]
        np.testing.assert_allclose(sub.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(sub.std(axis=0), 1.0, atol=1e-9)


def test_onehot_groups_sum_to_one(tables):
    table = tables["credit"]
    fm = ds.fit_transform(table, range(table.n_rows))
    groups = {}
    for j, name in enumerate(fm.feature_names):
        src, level, _ = name.partition("=")
        if level:
            groups.setdefault(src, []).append(j)
    for cols in groups.values():
        np.testing.assert_array_equal(fm.values[:, cols].sum(axis=1), 1.0)


# ---------------------------------------------------------------- splits

def _matrix_with_labels(labels):
    labels = np.asarray(labels)
    vals = np.arange(labels.size, dtype=np.float64)[:, None]
    return ds.FeatureMatrix(values=vals, labels=labels.astype(np.int64),
                            feature_names=["x"])


def test_holdout_sizes_at_303():
    rng = np.random.default_rng(1)
    labels = rng.permutation(np.array([1] * 139 + [0] * 164))
    fm = _matrix_with_labels(labels)
    train, test = ds.split_holdout(fm, 0.2, 3)
    assert test.size == 61 and train.size == 242
    # class ratio preserved within one row
    global_pos = labels.sum() / labels.size
    assert abs(labels[test].sum() - global_pos * 61) <= 1.0


def test_holdout_minimum_stratification():
    fm = _matrix_with_labels([0, 1] * 5)
    train, test = ds.split_holdout(fm, 0.2, 0)
    assert test.size == 2
    assert fm.labels[test].sum() == 1


def test_holdout_determinism_and_partition():
    fm = _matrix_with_labels([0, 1] * 30)
    a = ds.split_holdout(fm, 0.2, 7)
    b = ds.split_holdout(fm, 0.2, 7)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
    merged = np.sort(np.concatenate(a))
    np.testing.assert_array_equal(merged, np.arange(60))
    c = ds.split_holdout(fm, 0.2, 8)
    assert not np.array_equal(a[1], c[1])


def test_tiny_class_rejected():
    # five training rows of class 1 cannot fill five folds and leave each a fit row
    labels = np.asarray([0] * 20 + [1] * 5)
    with pytest.raises(DataError, match="class 1 has 5 training members; need at least n_folds"):
        ds.stratified_kfold(np.arange(25), labels, ds.SplitSpec(n_folds=5, seed=0))
    ds.stratified_kfold(np.arange(25), labels, ds.SplitSpec(n_folds=4, seed=0))


def test_holdout_accepts_a_class_too_small_for_the_folds():
    # the fold count is the fold deal's rule, checked only where folds are dealt
    fm = _matrix_with_labels([0] * 20 + [1] * 4)
    train, test = ds.split_holdout(fm, 0.2, 0)
    assert fm.labels[test].tolist() == [0, 0, 0, 0, 1]
    assert fm.labels[train].sum() == 3


@pytest.mark.parametrize("fraction", [0.001, 1 / 60], ids=["no_test_row", "one_test_row"])
def test_holdout_without_every_class_rejected(fraction):
    fm = _matrix_with_labels([0, 1] * 30)
    with pytest.raises(DataError, match="no test row"):
        ds.split_holdout(fm, fraction, 0)


def test_kfold_exact_divisibility():
    labels = np.array([0, 1] * 50)
    folds = ds.stratified_kfold(np.arange(100), labels, ds.SplitSpec(n_folds=5, seed=0))
    for fit, val in folds:
        assert val.size == 20
        assert labels[val].sum() == 10
        assert fit.size == 80


def test_kfold_partition_property():
    labels = np.asarray([0] * 41 + [1] * 36)
    train = np.arange(77)
    folds = ds.stratified_kfold(train, labels, ds.SplitSpec(n_folds=5, seed=5))
    vals = [v for _, v in folds]
    assert sum(v.size for v in vals) == 77
    np.testing.assert_array_equal(np.sort(np.concatenate(vals)), train)
    for i in range(5):
        for j in range(i + 1, 5):
            assert np.intersect1d(vals[i], vals[j]).size == 0
    for fit, val in folds:
        np.testing.assert_array_equal(np.sort(np.concatenate([fit, val])), train)


def test_kfold_242_fold_sizes():
    rng = np.random.default_rng(2)
    labels = rng.permutation(np.array([1] * 111 + [0] * 131))
    folds = ds.stratified_kfold(np.arange(242), labels, ds.SplitSpec(n_folds=5, seed=11))
    sizes = sorted(v.size for _, v in folds)
    assert set(sizes) <= {48, 49}
    # class ratio per fold within one observation of the global ratio
    for _, val in folds:
        expected = labels.sum() / 242 * val.size
        assert abs(labels[val].sum() - expected) <= 1.0


def test_kfold_determinism():
    labels = np.asarray([0, 1] * 40)
    a = ds.stratified_kfold(np.arange(80), labels, ds.SplitSpec(n_folds=5, seed=4))
    b = ds.stratified_kfold(np.arange(80), labels, ds.SplitSpec(n_folds=5, seed=4))
    for (fa, va), (fb, vb) in zip(a, b):
        np.testing.assert_array_equal(fa, fb)
        np.testing.assert_array_equal(va, vb)
