"""Slow reference implementations that the fast code is tested against.

- exact_shapley_oracle: the Shapley sum over all 2^p coalitions, the
  reference for interventional TreeSHAP (acceptance criterion 2).
- loop_best_split: the per-feature split search loop that
  gbm._TreeBuilder._best_split replaces with one search over every feature;
  patched onto the builder, it must give the same trees, bit for bit.
- loop_rank_auc / loop_roc_curve: the per-element tie-group loops that
  metrics._rank_auc and metrics._roc_curve replace with array code; the array
  code must return the same values, repr for repr.

The rank-AUC-against-trapezoid-AUC check stays in the package itself:
metrics.roc_auc raises when the two routes disagree.
"""

import math

import numpy as np

from shapgate import gbm
from shapgate.attribution import ShapMatrix, _check_inputs
from shapgate.errors import DataError

ORACLE_MAX_FEATURES = 15


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


def loop_best_split(self, rows):
    """(feature, threshold) of the best cut, one feature at a time, or None.

    A gbm._TreeBuilder method: each feature row of the builder's presort is
    filtered by membership, scored, and kept on a strictly greater gain.
    """
    member = np.zeros(self.X.shape[0], dtype=bool)
    member[rows] = True
    n = rows.size
    r_total = float(self.residual[rows].sum())
    parent_score = r_total * r_total / n
    best = None  # (gain, feature, threshold)
    for j in range(self.X.shape[1]):
        idx = self.order[j][member[self.order[j]]]
        v = self.X[idx, j]
        if v[0] == v[-1]:
            continue
        r = self.residual[idx]
        prefix = np.cumsum(r)
        # candidate boundaries between distinct consecutive values
        cut = np.flatnonzero(v[1:] != v[:-1]) + 1  # left part size
        cut = cut[(cut >= self.min_leaf) & (cut <= n - self.min_leaf)]
        if cut.size == 0:
            continue
        sl = prefix[cut - 1]
        gains = sl * sl / cut + (r_total - sl) ** 2 / (n - cut) - parent_score
        k = int(np.argmax(gains))
        if gains[k] > gbm.MIN_SPLIT_GAIN and (best is None or gains[k] > best[0]):
            thr = 0.5 * (v[cut[k] - 1] + v[cut[k]])
            best = (float(gains[k]), j, float(thr))
    if best is None:
        return None
    return best[1], best[2]


def loop_rank_auc(scores, labels):
    """Mann-Whitney AUC with mid-ranks: P(s+ > s-) + 0.5 P(s+ = s-)."""
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    ranks = np.empty(len(scores), dtype=np.float64)
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        # mid-rank for the tie group [i, j], 1-based ranks
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    rank_sum_pos = float(np.sum(ranks[labels == 1]))
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def loop_roc_curve(scores, labels):
    """Tie-aware ROC curve from (0,0) to (1,1), thresholds descending."""
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    order = np.argsort(-scores, kind="mergesort")
    s = scores[order]
    y = labels[order]
    points = [(0.0, 0.0)]
    tp = fp = 0
    i = 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and s[j + 1] == s[i]:
            j += 1
        tp += int(np.sum(y[i : j + 1] == 1))
        fp += int(np.sum(y[i : j + 1] == 0))
        points.append((fp / n_neg, tp / n_pos))
        i = j + 1
    return points
