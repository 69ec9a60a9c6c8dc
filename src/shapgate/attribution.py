"""Interventional SHAP attributions for tree ensembles, plus an exact oracle.

The value function is v(S) = mean over background rows z of the ensemble
margin on the composite point taking x on S and z off S. Attributions are in
margin (log-odds) units, so local accuracy base_value + sum(phi) = margin(x)
holds exactly up to float summation.

Fast path: each leaf defines per-feature intervals (lo, hi]. For a pair
(x, z) a path feature either satisfies both points (irrelevant), only x
(set A: must be in the coalition), only z (set B: must be out), or neither
(leaf unreachable for every coalition). The leaf's reduced game is then a
two-sided unanimity game whose Shapley values have closed forms
    i in A: +value * (a-1)! b! / (a+b)!
    j in B: -value * a! (b-1)! / (a+b)!
with a = |A|, b = |B|. Summing over leaves, trees, and background rows gives
the exact interventional SHAP in time polynomial in depth and data size.

exact_shapley_oracle evaluates the Shapley sum over all 2^p coalitions and is
the reference the fast path is tested against.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import gbm
from .errors import DataError

MAX_PATH_FEATURES = 12  # per-leaf unique-feature cap for the mask tables
ORACLE_MAX_FEATURES = 15
BACKGROUND_CAP = 1000  # background rows; more training rows are subsampled


@dataclass
class ShapMatrix:
    values: np.ndarray  # (n, p), row-aligned with the source rows
    base_value: float
    feature_names: list[str] | None = None


@dataclass
class Background:
    rows: np.ndarray  # (m, p) reference rows, drawn from training data

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.float64)
        if self.rows.ndim != 2 or self.rows.shape[0] == 0:
            raise DataError("background must be a non-empty (m, p) matrix")


def make_background(values, train_indices, seed=0):
    """Training rows as the SHAP background, subsampled only above BACKGROUND_CAP."""
    train_indices = np.asarray(train_indices)
    if train_indices.size == 0:
        raise DataError("background must be a non-empty (m, p) matrix")
    if train_indices.size > BACKGROUND_CAP:
        rng = np.random.default_rng([seed, 0xB6])
        train_indices = np.sort(rng.choice(train_indices, size=BACKGROUND_CAP, replace=False))
    return Background(rows=np.asarray(values, dtype=np.float64)[train_indices])


def _leaf_boxes(tree):
    """(value, features, lo, hi) per reachable leaf; intervals are (lo, hi]."""
    out = []
    stack = [(0, {})]
    while stack:
        node, box = stack.pop()
        f = int(tree.feature[node])
        if f < 0:
            feats = np.array(sorted(box), dtype=np.intp)
            lo = np.array([box[k][0] for k in feats])
            hi = np.array([box[k][1] for k in feats])
            out.append((float(tree.value[node]), feats, lo, hi))
            continue
        thr = float(tree.threshold[node])
        lo, hi = box.get(f, (-np.inf, np.inf))
        if lo < min(hi, thr):  # left branch feasible
            left_box = dict(box)
            left_box[f] = (lo, min(hi, thr))
            stack.append((int(tree.left[node]), left_box))
        if max(lo, thr) < hi:  # right branch feasible
            right_box = dict(box)
            right_box[f] = (max(lo, thr), hi)
            stack.append((int(tree.right[node]), right_box))
    return out


def _coefficient_tables(limit):
    # cp[a, b] = (a-1)! b! / (a+b)!   (member of A), valid for a >= 1
    # cm[a, b] = a! (b-1)! / (a+b)!   (member of B), valid for b >= 1
    f = [math.factorial(k) for k in range(2 * limit + 1)]
    cp = np.zeros((limit + 1, limit + 1))
    cm = np.zeros((limit + 1, limit + 1))
    for a in range(limit + 1):
        for b in range(limit + 1):
            if a >= 1:
                cp[a, b] = f[a - 1] * f[b] / f[a + b]
            if b >= 1:
                cm[a, b] = f[a] * f[b - 1] / f[a + b]
    return cp, cm


_CP, _CM = _coefficient_tables(MAX_PATH_FEATURES)


def _accumulate_tree(phi, tree, Xf, Xb, scale):
    """Add one tree's attributions (times scale) into phi, shape (n_f, p)."""
    n_b = Xb.shape[0]
    for value, feats, lo, hi in _leaf_boxes(tree):
        q = feats.size
        if q == 0 or value == 0.0:
            continue  # leaf reached by everything, or contributes nothing
        if q > MAX_PATH_FEATURES:
            raise DataError(
                f"leaf path uses {q} unique features; attribution supports at most {MAX_PATH_FEATURES}"
            )
        pow2 = 1 << np.arange(q, dtype=np.int64)
        sat_f = (Xf[:, feats] > lo) & (Xf[:, feats] <= hi)
        sat_b = (Xb[:, feats] > lo) & (Xb[:, feats] <= hi)
        xmask = sat_f @ pow2
        counts = np.bincount(sat_b @ pow2, minlength=1 << q)
        observed_z = np.flatnonzero(counts)
        unique_x, inverse = np.unique(xmask, return_inverse=True)
        # (G, Z, q) masks over distinct x masks, observed z masks, path features
        in_x = (unique_x[:, None, None] & pow2) != 0
        in_z = (observed_z[None, :, None] & pow2) != 0
        A = in_x & ~in_z
        B = in_z & ~in_x
        live = np.all(in_x | in_z, axis=2)
        a = A.sum(axis=2)
        b = B.sum(axis=2)
        cnt = counts[observed_z].astype(np.float64)
        plus = np.where(live, cnt * _CP[a, b], 0.0)[:, :, None]
        minus = np.where(live, cnt * _CM[a, b], 0.0)[:, :, None]
        terms = np.where(A, plus, 0.0) - np.where(B, minus, 0.0)
        # sequential sum over z in ascending order; a pairwise .sum(axis=1)
        # would round differently once there are 8 or more terms
        table = np.cumsum(terms, axis=1)[:, -1]
        phi[:, feats] += (scale * value / n_b) * table[inverse]


def _check_inputs(ensemble, X, bg):
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != ensemble.n_features:
        raise DataError(f"expected (n, {ensemble.n_features}) matrix, got shape {X.shape}")
    if bg.rows.shape[1] != ensemble.n_features:
        raise DataError(
            f"background has {bg.rows.shape[1]} features, ensemble expects {ensemble.n_features}"
        )
    return X


def shap_matrix(ensemble, matrix, bg, rows=None):
    """Interventional SHAP for the given rows, one attribution row per input row."""
    values = getattr(matrix, "values", matrix)
    feature_names = getattr(matrix, "feature_names", None)
    X = _check_inputs(ensemble, values, bg)
    if rows is not None:
        X = X[np.asarray(rows)]
    phi = np.zeros_like(X)
    for tree in ensemble.trees:
        _accumulate_tree(phi, tree, X, bg.rows, ensemble.learning_rate)
    base_value = float(gbm.predict_margin_batch(ensemble, bg.rows).mean())
    return ShapMatrix(values=phi, base_value=base_value, feature_names=feature_names)


def exact_shapley_oracle(ensemble, x, bg):
    """Brute-force Shapley values over all 2^p coalitions, as a one-row ShapMatrix.

    Testing aid: the reference the fast path is checked against.
    """
    p = ensemble.n_features
    if p > ORACLE_MAX_FEATURES:
        raise DataError(f"exact oracle refuses p={p} > {ORACLE_MAX_FEATURES} features")
    x = np.asarray(x, dtype=np.float64)
    X = _check_inputs(ensemble, x[None, :], bg)
    x = X[0]
    bgr = bg.rows
    m = bgr.shape[0]
    masks = np.arange(1 << p)
    bits = (masks[:, None] >> np.arange(p)[None, :]) & 1
    v = np.empty(1 << p)
    chunk = 2048
    for s in range(0, 1 << p, chunk):
        take_x = bits[s : s + chunk].astype(bool)
        hybrid = np.where(take_x[:, None, :], x[None, None, :], bgr[None, :, :])
        margins = gbm.predict_margin_batch(ensemble, hybrid.reshape(-1, p))
        v[s : s + chunk] = margins.reshape(-1, m).mean(axis=1)
    sizes = bits.sum(axis=1)
    fact = [math.factorial(k) for k in range(p + 1)]
    weight = np.array([fact[s] * fact[p - s - 1] / fact[p] for s in range(p)])
    phi = np.empty(p)
    for i in range(p):
        without = np.flatnonzero(((masks >> i) & 1) == 0)
        phi[i] = np.sum(weight[sizes[without]] * (v[without | (1 << i)] - v[without]))
    return ShapMatrix(values=phi[None, :], base_value=float(v[0]))


def shap_matrix_to_csv(sm):
    """CSV dump: one row per observation, final column is the base value."""
    p = sm.values.shape[1]
    names = sm.feature_names if sm.feature_names else [f"f{i}" for i in range(p)]
    header = ",".join(list(names) + ["base_value"])
    lines = [header]
    for row in sm.values:
        lines.append(",".join(f"{v!r}" for v in row.tolist()) + f",{sm.base_value!r}")
    return "\n".join(lines) + "\n"
