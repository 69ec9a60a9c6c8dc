"""Deterministic stand-in datasets in the exact UCI on-disk formats.

The real benchmark files are not redistributable with this package, so these
generators produce tables with the same shapes, column vocabularies and
missing-value markers, plus a planted latent-subgroup signal: which features
drive the outcome, and in which direction, depends on a hidden group that is
a sharp function of a few context columns, and several features deliberately
reverse their effect between groups. The per-row attributions carry little of
that group, as measured on master seeds 0-2 (ROADMAP Baseline, item 7): the
chosen clustering's ARI against the planted group is -0.002 to 0.092, and with
the true groups' centroids the SHAP rows separate the groups at 0.47-0.63,
against 0.82-0.84 for the scaled features. The planted structure exercises
every pipeline stage, but relative variant performance on these tables is a
property of the generator, not of the published benchmarks. Use the genuine
UCI files for any comparison against published numbers.
"""

import os

import numpy as np

from . import seeds
from .dataset import SCHEMAS
from .pipeline import write_files

STANDIN_SEED = 20240  # the data seed of `shapgate synth` and of the test suite's stand-ins


def _yes_no(rng, p):
    return "Yes" if rng.random() < p else "No"


def _flag(rng, y, p_pos, p_neg):
    return rng.random() < (p_pos if y else p_neg)


def synth_diabetes(rng):
    """520 rows; symptom blocks informative only within their latent group,
    and two symptoms flip direction between groups."""
    cols = SCHEMAS["diabetes"].column_names[:-1]
    rows = []
    for _ in range(520):
        g = int(rng.integers(3))
        y = 1 if rng.random() < (0.64, 0.56, 0.60)[g] else 0
        age = int(np.clip(rng.normal(52 if y else 45, 11), 16, 90))
        cells = {c: _yes_no(rng, 0.30) for c in cols}
        cells["Age"] = str(age)
        cells["Gender"] = "Male" if rng.random() < 0.62 else "Female"
        # weakly informative regardless of group
        cells["weakness"] = _yes_no(rng, 0.60 if y else 0.42)
        cells["Polyphagia"] = _yes_no(rng, 0.58 if y else 0.42)
        if g == 0:
            cells["Polyuria"] = _yes_no(rng, 0.93 if y else 0.07)
            cells["Polydipsia"] = _yes_no(rng, 0.92 if y else 0.08)
            cells["sudden weight loss"] = _yes_no(rng, 0.90 if y else 0.10)
        elif g == 1:
            cells["visual blurring"] = _yes_no(rng, 0.93 if y else 0.07)
            cells["Irritability"] = _yes_no(rng, 0.90 if y else 0.08)
            # reversed: polyuria marks the healthy side of this group
            cells["Polyuria"] = _yes_no(rng, 0.10 if y else 0.85)
        else:
            cells["partial paresis"] = _yes_no(rng, 0.93 if y else 0.07)
            cells["muscle stiffness"] = _yes_no(rng, 0.90 if y else 0.09)
            # reversed: polydipsia marks the healthy side of this group
            cells["Polydipsia"] = _yes_no(rng, 0.12 if y else 0.82)
        # the group is visible as a sharp pattern of two context columns
        cells["Genital thrush"] = _yes_no(rng, 0.88 if g == 1 else 0.06)
        cells["Obesity"] = _yes_no(rng, 0.88 if g == 2 else 0.06)
        label = "Positive" if y else "Negative"
        rows.append([cells[c] for c in cols] + [label])
    return rows


def synth_heart(rng):
    """303 rows in processed-Cleveland layout with '?' in ca and thal.

    Three phenotypes: exercise-limited (g0, low peak heart rate means
    disease), paradoxical (g1, HIGH peak heart rate means disease) and
    vascular (g2, vessel count and thallium defect carry the signal)."""
    rows = []
    for i in range(303):
        u = rng.random()
        g = 0 if u < 0.40 else (1 if u < 0.72 else 2)
        y = 1 if rng.random() < (0.44, 0.50, 0.47)[g] else 0
        age = float(int(np.clip(rng.normal(56 if y else 52, 9), 29, 77)))
        sex = float(rng.random() < (0.74 if y else 0.62))
        trestbps = float(int(np.clip(rng.normal(131, 17), 94, 200)))
        chol = float(int(np.clip(rng.normal(247, 52), 126, 564)))
        fbs = float(rng.random() < 0.13)
        restecg = float(rng.choice([0, 1, 2], p=[0.5, 0.01, 0.49]))
        # group stamps: slope and cp form a sharp pattern per phenotype
        if g == 0:
            slope = 1.0 if rng.random() < 0.88 else 2.0
            cp = float(rng.choice([2, 3], p=[0.45, 0.55])) if rng.random() < 0.85 else 1.0
        elif g == 1:
            slope = float(rng.choice([2, 3], p=[0.80, 0.20])) if rng.random() < 0.88 else 1.0
            cp = 4.0 if rng.random() < 0.85 else float(rng.choice([2, 3]))
        else:
            slope = 1.0 if rng.random() < 0.75 else 3.0
            cp = 1.0 if rng.random() < 0.80 else 4.0

        thalach = float(int(np.clip(rng.normal(150, 16), 71, 202)))
        oldpeak = float(np.round(np.clip(rng.normal(1.0, 0.7), 0, 6.2), 1))
        exang = float(rng.random() < 0.30)
        ca = float(rng.choice([0, 1, 2, 3], p=[0.72, 0.14, 0.09, 0.05]))
        thal = float(rng.choice([3, 6, 7], p=[0.72, 0.08, 0.20]))
        if g == 0:
            thalach = float(int(np.clip(rng.normal(127 if y else 167, 12), 71, 202)))
            oldpeak = float(np.round(np.clip(rng.normal(2.2 if y else 0.5, 0.6), 0, 6.2), 1))
            exang = float(_flag(rng, y, 0.72, 0.14))
        elif g == 1:
            # reversed: disease presents with a HIGH peak rate here
            thalach = float(int(np.clip(rng.normal(172 if y else 141, 12), 71, 202)))
            thal = 7.0 if _flag(rng, y, 0.75, 0.18) else float(rng.choice([3, 6], p=[0.85, 0.15]))
        else:
            ca = float(rng.choice([1, 2, 3], p=[0.45, 0.35, 0.20])) if _flag(rng, y, 0.85, 0.12) else 0.0
            thal = float(rng.choice([6, 7], p=[0.35, 0.65])) if _flag(rng, y, 0.78, 0.15) else 3.0
        num = 0 if y == 0 else int(rng.choice([1, 2, 3, 4], p=[0.5, 0.25, 0.15, 0.10]))
        cells = [age, sex, cp, trestbps, chol, fbs, restecg, thalach, exang, oldpeak, slope, ca, thal]
        cells = [f"{v:.1f}" for v in cells]
        if i in (37, 111, 198, 251):  # mirror the real file's 4 missing ca cells
            cells[11] = "?"
        if i in (87, 266):  # and 2 missing thal cells
            cells[12] = "?"
        rows.append(cells + [str(num)])
    return rows


_A6_LEVELS = ["c", "d", "cc", "i", "j", "k", "m", "r", "q", "w", "x", "e", "aa", "ff"]
_A7_LEVELS = ["v", "h", "bb", "j", "n", "z", "dd", "ff", "o"]


def synth_credit(rng):
    """690 rows in crx layout; five applicant profiles with disjoint drivers.

    a9 and a11 reverse direction between profiles, and a8 is risky-low in one
    profile but risky-high in another."""
    rows = []
    for i in range(690):
        g = int(rng.integers(5))
        y = 1 if rng.random() < (0.46, 0.43, 0.45, 0.44, 0.45)[g] else 0
        a1 = rng.choice(["b", "a"], p=[0.69, 0.31])
        a2 = float(np.round(np.clip(rng.gamma(6, 5.3), 13.75, 80.25), 2))
        a3 = float(np.round(np.clip(rng.gamma(1.6, 3.0), 0, 28), 3))
        a4 = rng.choice(["u", "y", "l"], p=[0.75, 0.24, 0.01])
        a6 = _A6_LEVELS[int(rng.integers(len(_A6_LEVELS)))]
        a7 = _A7_LEVELS[int(rng.choice([0, 1, 2], p=[0.6, 0.2, 0.2]))] if rng.random() < 0.8 else _A7_LEVELS[int(rng.integers(len(_A7_LEVELS)))]
        a8 = float(np.round(rng.gamma(1.3, 1.7), 3))
        a9 = "t" if rng.random() < 0.52 else "f"
        a10 = "t" if rng.random() < 0.45 else "f"
        a11 = int(rng.poisson(2.0))
        a12 = "t" if rng.random() < 0.46 else "f"
        a13 = rng.choice(["g", "s", "p"], p=[0.90, 0.08, 0.02])
        a14 = int(np.clip(rng.normal(180, 120), 0, 2000))
        a15 = int(rng.gamma(0.6, 900)) if rng.random() < 0.6 else 0

        # per-profile drivers, generated conditionally on the outcome
        if g == 0:
            a9 = "t" if _flag(rng, y, 0.92, 0.10) else "f"
            a10 = "t" if _flag(rng, y, 0.62, 0.38) else "f"
        elif g == 1:
            a11 = int(rng.poisson(4.0) + 1) if y else int(rng.poisson(0.7))
            # reversed: a9 = t marks the approved side elsewhere, rejected here
            a9 = "t" if _flag(rng, y, 0.15, 0.78) else "f"
        elif g == 2:
            a15 = int(rng.gamma(2.0, 2000) + 500) if y else int(rng.gamma(0.5, 300))
            a8 = float(np.round(rng.gamma(3.0, 1.6) if y else rng.gamma(1.0, 0.9), 3))
        elif g == 3:
            # reversed relative to g2: low a8 is the risky side here
            a8 = float(np.round(rng.gamma(1.0, 0.7) if y else rng.gamma(3.2, 1.8), 3))
            a2 = float(np.round(np.clip(rng.normal(30, 6) if y else rng.normal(46, 8), 13.75, 80.25), 2))
        else:
            # reversed relative to g1: a low a11 count is the risky side
            a11 = int(rng.poisson(0.5)) if y else int(rng.poisson(3.5) + 1)
            a14 = int(np.clip(rng.normal(420 if y else 130, 90), 0, 2000))
        # the profile is stamped onto three context columns
        a13 = ["g", "g", "s", "g", "p"][g] if rng.random() < 0.85 else a13
        a12 = ["t", "f", "t", "f", "t"][g] if rng.random() < 0.82 else a12
        a4 = ["u", "u", "y", "y", "u"][g] if rng.random() < 0.75 else a4
        a5 = {"u": "g", "y": "p", "l": "gg"}[a4]

        cells = [a1, f"{a2:.2f}", f"{a3:.3f}", a4, a5, a6, a7, f"{a8:.3f}",
                 a9, a10, str(a11), a12, a13, f"{a14:05d}", str(a15)]
        rows.append(cells + ["+" if y else "-"])
    # 37 rows carry missing markers, as in the published file
    miss_rows = np.linspace(5, 660, 37).astype(int)
    miss_cols = [0, 1, 3, 4, 5, 6, 13]
    for j, r in enumerate(miss_rows):
        rows[r][miss_cols[j % len(miss_cols)]] = "?"
    return rows


_GENERATORS = {"diabetes": synth_diabetes, "heart": synth_heart, "credit": synth_credit}


def write_synthetic(dataset, path, seed):
    """Write a stand-in file for `dataset` at `path` whole or not at all,
    making its directory if needed; returns the path."""
    rows = _GENERATORS[dataset](seeds.rng("standin", seed, dataset))
    sch = SCHEMAS[dataset]
    if sch.has_header:
        rows = [sch.column_names, *rows]
    directory, name = os.path.split(path)
    write_files(directory or ".", [(name, "".join(",".join(row) + "\n" for row in rows))])
    return path
