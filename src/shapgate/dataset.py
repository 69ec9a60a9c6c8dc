"""Loading and preprocessing for the three UCI benchmark tables.

Files are consumed exactly as published by the UCI repository: the diabetes
risk CSV ships with a header row, the Cleveland heart file and the credit
approval file are headerless comma-delimited text with '?' as the missing
marker. Preprocessing is deliberately minimal: mode/median imputation,
standard scaling of continuous columns (population std, fit on training rows
only) and one-hot encoding of categorical columns.
"""

import math
import os
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from . import metrics, seeds
from .errors import DataError, ParseError

MISSING = "?"

CONTINUOUS = "continuous"
CATEGORICAL = "categorical"
LABEL = "label"


@dataclass
class Schema:
    column_names: list[str]
    column_kinds: list[str]  # parallel to column_names
    has_header: bool
    label_map: callable  # raw label cell -> 0/1
    default_filename: str


def _diabetes_label(cell):
    cell = cell.strip()
    if cell == "Positive":
        return 1
    if cell == "Negative":
        return 0
    raise DataError(f"unexpected diabetes label {cell!r}")


def _heart_label(cell):
    # disease grades 1-4 collapse to 1
    try:
        grade = float(cell)
    except ValueError as e:
        raise DataError(f"unexpected heart label {cell!r}") from e
    if grade not in (0, 1, 2, 3, 4):
        raise DataError(f"heart disease grade {cell!r} is not one of 0-4")
    return 1 if grade > 0 else 0


def _credit_label(cell):
    cell = cell.strip()
    if cell == "+":
        return 1
    if cell == "-":
        return 0
    raise DataError(f"unexpected credit label {cell!r}")


_DIABETES_COLUMNS = [
    ("Age", CONTINUOUS),
    ("Gender", CATEGORICAL),
    ("Polyuria", CATEGORICAL),
    ("Polydipsia", CATEGORICAL),
    ("sudden weight loss", CATEGORICAL),
    ("weakness", CATEGORICAL),
    ("Polyphagia", CATEGORICAL),
    ("Genital thrush", CATEGORICAL),
    ("visual blurring", CATEGORICAL),
    ("Itching", CATEGORICAL),
    ("Irritability", CATEGORICAL),
    ("delayed healing", CATEGORICAL),
    ("partial paresis", CATEGORICAL),
    ("muscle stiffness", CATEGORICAL),
    ("Alopecia", CATEGORICAL),
    ("Obesity", CATEGORICAL),
    ("class", LABEL),
]

_HEART_COLUMNS = [
    ("age", CONTINUOUS),
    ("sex", CATEGORICAL),
    ("cp", CATEGORICAL),
    ("trestbps", CONTINUOUS),
    ("chol", CONTINUOUS),
    ("fbs", CATEGORICAL),
    ("restecg", CATEGORICAL),
    ("thalach", CONTINUOUS),
    ("exang", CATEGORICAL),
    ("oldpeak", CONTINUOUS),
    ("slope", CATEGORICAL),
    ("ca", CATEGORICAL),
    ("thal", CATEGORICAL),
    ("num", LABEL),
]

_CREDIT_COLUMNS = (
    [("A1", CATEGORICAL), ("A2", CONTINUOUS), ("A3", CONTINUOUS)]
    + [("A4", CATEGORICAL), ("A5", CATEGORICAL), ("A6", CATEGORICAL), ("A7", CATEGORICAL)]
    + [("A8", CONTINUOUS), ("A9", CATEGORICAL), ("A10", CATEGORICAL), ("A11", CONTINUOUS)]
    + [("A12", CATEGORICAL), ("A13", CATEGORICAL), ("A14", CONTINUOUS), ("A15", CONTINUOUS)]
    + [("A16", LABEL)]
)

SCHEMAS = {
    "diabetes": Schema(
        column_names=[c for c, _ in _DIABETES_COLUMNS],
        column_kinds=[k for _, k in _DIABETES_COLUMNS],
        has_header=True,
        label_map=_diabetes_label,
        default_filename="diabetes_data_upload.csv",
    ),
    "heart": Schema(
        column_names=[c for c, _ in _HEART_COLUMNS],
        column_kinds=[k for _, k in _HEART_COLUMNS],
        has_header=False,
        label_map=_heart_label,
        default_filename="processed.cleveland.data",
    ),
    "credit": Schema(
        column_names=[c for c, _ in _CREDIT_COLUMNS],
        column_kinds=[k for _, k in _CREDIT_COLUMNS],
        has_header=False,
        label_map=_credit_label,
        default_filename="crx.data",
    ),
}


@dataclass
class RawTable:
    columns: list[list[str]]  # one list of feature cells as strings per column, label stripped
    labels: list[int]  # binarized
    column_names: list[str]  # feature columns only, parallel to columns
    column_kinds: list[str]  # continuous | categorical, parallel to names

    @property
    def n_rows(self):
        return len(self.labels)


@dataclass
class FeatureMatrix:
    values: np.ndarray  # (n, p) float64
    labels: np.ndarray  # (n,) int64
    feature_names: list[str]  # a scaled column's name, or "<column>=<level>" per level


@dataclass(kw_only=True)
class SplitSpec:
    n_folds: int
    seed: int


def resolve_data_path(dataset, explicit):
    """Locate the on-disk file for a dataset.

    Search order: the explicit path (None when there is none), then
    $SHAPGATE_DATA_DIR, then ./data, both using the published UCI filename
    for the dataset.
    """
    if dataset not in SCHEMAS:
        raise DataError(f"unknown dataset {dataset!r}; expected one of {sorted(SCHEMAS)}")
    if explicit is not None:
        if not os.path.exists(explicit):
            raise DataError(f"data file {explicit!r} does not exist")
        return explicit
    name = SCHEMAS[dataset].default_filename
    candidates = []
    env_dir = os.environ.get("SHAPGATE_DATA_DIR")
    if env_dir:
        candidates.append(os.path.join(env_dir, name))
    candidates.append(os.path.join("data", name))
    for cand in candidates:
        if os.path.exists(cand):
            return cand
    raise DataError(
        f"no data file found for {dataset!r}: pass an explicit path, or place "
        f"{name!r} under $SHAPGATE_DATA_DIR or ./data (a synthetic stand-in "
        f"can be generated with the synth command)"
    )


def _is_finite_number(cell):
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def load_dataset(path, schema):
    """Parse a delimited UCI file into a RawTable with binarized labels."""
    if schema not in SCHEMAS:
        raise DataError(f"unknown schema {schema!r}; expected one of {sorted(SCHEMAS)}")
    sch = SCHEMAS[schema]
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"cannot read {path}: {e}") from e

    n_cols = len(sch.column_names)
    label_idx = sch.column_kinds.index(LABEL)
    feature_idx = [i for i in range(n_cols) if i != label_idx]
    header_line = None
    columns, labels = [[] for _ in feature_idx], []
    # lines are numbered as read, so an error names the physical line
    for lineno, line in enumerate(lines, start=1):
        if line.strip() == "":
            continue
        cells = [c.strip() for c in line.split(",")]
        if sch.has_header and header_line is None:
            if cells != sch.column_names:
                raise ParseError(f"header mismatch for schema {schema!r}: got {cells}", line=lineno)
            header_line = lineno
            continue
        if len(cells) != n_cols:
            raise ParseError(
                f"expected {n_cols} columns, got {len(cells)}", line=lineno, column=len(cells)
            )
        for col, (cell, kind) in enumerate(zip(cells, sch.column_kinds)):
            if kind == CONTINUOUS and cell != MISSING and not _is_finite_number(cell):
                raise ParseError(
                    f"value {cell!r} in continuous column {sch.column_names[col]!r} "
                    f"is not a finite number",
                    line=lineno,
                    column=col + 1,
                )
        try:
            labels.append(sch.label_map(cells[label_idx]))
        except DataError as e:
            raise ParseError(str(e), line=lineno, column=label_idx + 1) from e
        for column, i in zip(columns, feature_idx):
            column.append(cells[i])
    if not labels:
        if header_line is None:
            raise ParseError(f"{path} is empty", line=1)
        raise ParseError(f"{path} has a header but no data rows", line=header_line + 1)

    table = RawTable(
        columns=columns,
        labels=labels,
        column_names=[sch.column_names[i] for i in feature_idx],
        column_kinds=[sch.column_kinds[i] for i in feature_idx],
    )
    distinct = set(table.labels)
    if len(distinct) != 2:
        raise DataError(f"label column must take two values after binarization, got {sorted(distinct)}")
    return table


def handle_missing(table):
    """Impute '?' cells: mode for categorical, median for continuous.

    Statistics are computed over all rows. Returns (table, imputed_cell_count);
    the input table is not modified.
    """
    n_imputed = 0
    columns = []
    for name, kind, cells in zip(table.column_names, table.column_kinds, table.columns):
        present = [c for c in cells if c != MISSING]
        if not present:
            raise DataError(f"column {name!r} is entirely missing")
        n_missing = len(cells) - len(present)
        if n_missing:
            if kind == CONTINUOUS:
                fill = format(metrics.median([float(c) for c in present]), ".10g")
            else:
                counts = Counter(present)
                fill = max(counts, key=counts.get)  # mode; the first level to appear wins a tie
            cells = [fill if c == MISSING else c for c in cells]
            n_imputed += n_missing
        columns.append(cells)
    return replace(table, columns=columns), n_imputed


def fit_transform(table, training_row_ids):
    """Scale continuous columns (training-row statistics) and one-hot the rest.

    One-hot levels are enumerated over all rows in first-appearance order, so
    the encoded width never depends on the split.
    """
    train_ids = sorted(set(int(i) for i in training_row_ids))
    if not train_ids:
        raise DataError("training_row_ids is empty")
    if min(train_ids) < 0 or max(train_ids) >= table.n_rows:
        raise DataError("training_row_ids out of range")

    n = table.n_rows
    blocks = []
    feature_names = []
    for name, kind, cells in zip(table.column_names, table.column_kinds, table.columns):
        if MISSING in cells:
            raise DataError(f"column {name!r} still contains missing cells; run handle_missing first")
        if kind == CONTINUOUS:
            vals = np.asarray([float(c) for c in cells], dtype=np.float64)
            train_vals = vals[train_ids]
            with np.errstate(over="ignore", invalid="ignore"):
                mean = float(np.mean(train_vals))
                std = float(np.std(train_vals))  # population
                if std == 0.0:
                    raise DataError(f"continuous column {name!r} has zero variance on training rows")
                scaled = (vals - mean) / std
            if not (math.isfinite(mean) and math.isfinite(std) and np.isfinite(scaled).all()):
                raise DataError(f"continuous column {name!r} overflows when scaled")
            blocks.append(scaled[:, None])
            feature_names.append(name)
        else:
            level_pos = {lv: j for j, lv in enumerate(dict.fromkeys(cells))}
            onehot = np.zeros((n, len(level_pos)), dtype=np.float64)
            onehot[np.arange(n), [level_pos[c] for c in cells]] = 1.0
            blocks.append(onehot)
            feature_names.extend(f"{name}={lv}" for lv in level_pos)

    return FeatureMatrix(
        values=np.hstack(blocks),
        labels=np.asarray(table.labels, dtype=np.int64),
        feature_names=feature_names,
    )


def _class_counts_for_test(labels, n_test):
    """Per-class holdout counts: proportional, largest remainder, total exact."""
    classes, counts = np.unique(labels, return_counts=True)
    frac = n_test / labels.size
    ideal = counts * frac
    base = np.floor(ideal).astype(int)
    shortfall = n_test - int(base.sum())
    # largest fractional remainder first; ties -> larger class, then lower label
    remainders = ideal - base
    order = sorted(
        range(len(classes)),
        key=lambda i: (-remainders[i], -counts[i], classes[i]),
    )
    for i in order[:shortfall]:
        base[i] += 1
    return dict(zip(classes.tolist(), base.tolist()))


def split_holdout(matrix, holdout_fraction, seed):
    """Stratified train/test split; test size = round(holdout_fraction * n),
    with at least one test row per class."""
    labels = np.asarray(matrix.labels)
    n = labels.size
    if n < 10:
        raise DataError(f"need at least 10 rows to split, got {n}")
    n_test = int(np.round(holdout_fraction * n))
    per_class = _class_counts_for_test(labels, n_test)
    # a holdout without both classes cannot be scored, so stop before any fit
    empty = [cls for cls, t in per_class.items() if t == 0]
    if empty:
        raise DataError(
            f"a holdout of {n_test} of {n} rows gives class {empty[0]} no test row; "
            f"raise holdout_fraction"
        )
    rng = seeds.rng("holdout", seed)
    test_parts, train_parts = [], []
    for cls, t in per_class.items():
        members = np.flatnonzero(labels == cls)
        members = members[rng.permutation(members.size)]
        test_parts.append(members[:t])
        train_parts.append(members[t:])
    test_idx = np.sort(np.concatenate(test_parts))
    train_idx = np.sort(np.concatenate(train_parts))
    return train_idx, test_idx


def stratified_kfold(train_indices, labels, spec):
    """Stratified folds over the training rows.

    Per class, shuffled members are dealt into n_folds chunks; leftover rows go
    to the earliest folds via a cursor shared across classes, which keeps the
    overall fold sizes within one row of each other.
    """
    train_indices = np.asarray(train_indices)
    labels = np.asarray(labels)
    y = labels[train_indices]
    classes, counts = np.unique(y, return_counts=True)
    for cls, cnt in zip(classes, counts):
        if cnt < spec.n_folds + 1:
            raise DataError(
                f"class {cls} has {cnt} training members; need at least n_folds+1 = {spec.n_folds + 1}"
            )
    rng = seeds.rng("fold_deal", spec.seed)
    fold_of = np.empty(train_indices.size, dtype=np.intp)
    cursor = 0
    for cls, cnt in zip(classes.tolist(), counts.tolist()):
        pos = np.flatnonzero(y == cls)[rng.permutation(cnt)]  # shuffled, within train_indices
        sizes = np.full(spec.n_folds, cnt // spec.n_folds)
        rem = cnt % spec.n_folds
        sizes[(cursor + np.arange(rem)) % spec.n_folds] += 1
        cursor += rem
        fold_of[pos] = np.repeat(np.arange(spec.n_folds), sizes)
    return [(np.sort(train_indices[fold_of != f]), np.sort(train_indices[fold_of == f]))
            for f in range(spec.n_folds)]
