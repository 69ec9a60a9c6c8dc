"""Shared fixtures: dataset files (real UCI copies when present, stand-ins
otherwise) and preprocessed matrices reused across test modules.

Drop the genuine files into <repo>/data/ (or point SHAPGATE_DATA_DIR at them)
to run every data-dependent test against the published tables:
    data/diabetes_data_upload.csv
    data/processed.cleveland.data
    data/crx.data
"""

import os
from pathlib import Path

import pytest

from shapgate import dataset as ds
from shapgate import synth

DATASETS = ("diabetes", "heart", "credit")


def _real_data_dir():
    env = os.environ.get("SHAPGATE_DATA_DIR")
    candidates = [Path(env)] if env else []
    candidates.append(Path(__file__).resolve().parent.parent / "data")
    for c in candidates:
        if c.is_dir():
            return c
    return None


@pytest.fixture(scope="session")
def dataset_files(tmp_path_factory):
    """Map dataset id -> (path, is_real)."""
    real_dir = _real_data_dir()
    out = {}
    synth_dir = tmp_path_factory.mktemp("standin_data")
    for name in DATASETS:
        fname = ds.SCHEMAS[name].default_filename
        if real_dir is not None and (real_dir / fname).is_file():
            out[name] = (real_dir / fname, True)
        else:
            path = synth_dir / fname
            synth.write_synthetic(name, path, synth.STANDIN_SEED)
            out[name] = (path, False)
    return out


@pytest.fixture(scope="session")
def tables(dataset_files):
    """Loaded + imputed RawTables."""
    out = {}
    for name, (path, _) in dataset_files.items():
        table = ds.load_dataset(path, name)
        table, _ = ds.handle_missing(table)
        out[name] = table
    return out


@pytest.fixture(scope="session")
def heart_few_positives(dataset_files, tmp_path_factory):
    """The heart file relabelled so that only its first five rows are positive.
    The default holdout takes one of them, which leaves four training rows:
    too few for five folds, enough to fit and explain."""
    lines = Path(dataset_files["heart"][0]).read_text().split("\n")
    rows = [ln.split(",") for ln in lines if ln.strip()]
    for i, cells in enumerate(rows):
        cells[-1] = "1" if i < 5 else "0"
    path = tmp_path_factory.mktemp("few_positives") / "processed.cleveland.data"
    path.write_text("".join(",".join(cells) + "\n" for cells in rows))
    return path
