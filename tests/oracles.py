"""Slow reference implementations that the fast code is tested against.

- exact_shapley_oracle: the Shapley sum over all 2^p coalitions, the
  reference for interventional TreeSHAP (acceptance criterion 2).
- loop_accumulate_tree: the per-leaf TreeSHAP loop that
  attribution._accumulate_tree replaces with per-tree leaf tables; patched
  into attribution, it must give the same SHAP values, bit for bit.
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
from shapgate.attribution import _CM, _CP, MAX_PATH_FEATURES, ShapMatrix, _check_inputs
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


def leaf_boxes(tree):
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


def loop_accumulate_tree(phi, tree, Xf, Xb, scale):
    """Add one tree's attributions (times scale) into phi, shape (n_f, p)."""
    n_b = Xb.shape[0]
    for value, feats, lo, hi in leaf_boxes(tree):
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
