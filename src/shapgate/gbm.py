"""Gradient boosting for binary log loss over regression trees.

Each stage fits a depth-limited regression tree to the residual y - p with
plain squared-error split gain; leaf values take one Newton step
sum(residual) / sum(p*(1-p)) with a floored denominator. Split thresholds are
midpoints between consecutive distinct sorted feature values, so fitting is
exact and deterministic at this data scale. Training rows are brought into a
canonical order first, which makes the fit invariant to input row order.

Split search covers every feature at once. The rows are presorted once per
fit into a (p, N) matrix of row indices, one row per feature, next to the
matching sorted values; a node filters both by membership. It takes one
sequential cumsum of the sorted residuals along each feature row, scores the
cuts between distinct neighbouring values that leave min_samples_leaf rows on
each side, and keeps the first maximum in feature-major order: the lowest
feature index, then the smallest cut. That is the cut a per-feature loop with
a strict > over ascending features picks, with the same gain bits.

Each build also returns every training row's leaf value, which boosting adds
without re-predicting. predict_margin_batch moves the rows down all stacked
trees a level per step, a block of rows at a time so that rows x trees stays
within PREDICT_BLOCK_ELEMENTS, and adds each row's trees in ascending order,
as a walk would.

Routing rule everywhere: x[feature] <= threshold goes left.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError

NEWTON_DENOM_FLOOR = 1e-12
MIN_SPLIT_GAIN = 1e-12
# rows x trees that predict_margin_batch routes at once; its transients are a
# few such arrays, whatever the number of rows
PREDICT_BLOCK_ELEMENTS = 1 << 14


@dataclass
class GbmConfig:
    n_trees: int = 100
    learning_rate: float = 0.1
    max_depth: int = 3
    min_samples_leaf: int = 1


@dataclass
class DecisionTree:
    """Flat node arrays; feature == -1 marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray


@dataclass
class TreeEnsemble:
    base_margin: float
    trees: list[DecisionTree]
    learning_rate: float
    n_features: int

    @property
    def n_trees(self):
        return len(self.trees)


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


class _TreeBuilder:
    def __init__(self, X, max_depth, min_samples_leaf):
        self.X = X
        self.max_depth = max_depth
        self.min_leaf = min_samples_leaf
        # (p, N) presort: row j of order lists the rows in ascending order of
        # feature j, and row j of sorted_values their values of feature j
        self.order = np.argsort(X.T, axis=1, kind="stable")
        self.sorted_values = np.take_along_axis(X.T, self.order, axis=1)

    def build(self, residual, hessian):
        """The tree fit to residual and hessian, and each training row's leaf value."""
        self.residual = residual
        self.hessian = hessian
        self.nodes = []  # dicts, frozen to arrays at the end
        self.row_values = np.empty(self.X.shape[0], dtype=np.float64)
        self._grow(np.arange(self.X.shape[0]), depth=0)
        return DecisionTree(
            feature=np.asarray([nd["feature"] for nd in self.nodes], dtype=np.int32),
            threshold=np.asarray([nd["threshold"] for nd in self.nodes], dtype=np.float64),
            left=np.asarray([nd["left"] for nd in self.nodes], dtype=np.int32),
            right=np.asarray([nd["right"] for nd in self.nodes], dtype=np.int32),
            value=np.asarray([nd["value"] for nd in self.nodes], dtype=np.float64),
        ), self.row_values

    def _leaf_value(self, rows):
        denom = max(float(self.hessian[rows].sum()), NEWTON_DENOM_FLOOR)
        return float(self.residual[rows].sum()) / denom

    def _grow(self, rows, depth):
        node_id = len(self.nodes)
        node = {
            "feature": -1,
            "threshold": 0.0,
            "left": -1,
            "right": -1,
            "value": 0.0,
        }
        self.nodes.append(node)
        split = depth < self.max_depth and rows.size >= 2 * self.min_leaf and self._best_split(rows)
        if not split:
            node["value"] = self.row_values[rows] = self._leaf_value(rows)
            return node_id
        feat, thr = split
        go_left = self.X[rows, feat] <= thr
        node["feature"] = feat
        node["threshold"] = thr
        node["left"] = self._grow(rows[go_left], depth + 1)
        node["right"] = self._grow(rows[~go_left], depth + 1)
        return node_id

    def _best_split(self, rows):
        """(feature, threshold) of the best cut over every feature at once, or None."""
        member = np.zeros(self.X.shape[0], dtype=bool)
        member[rows] = True
        # the members' positions in the presort, feature-major; every presort
        # row holds each member once, so the (p, n) reshapes are exact
        keep = np.flatnonzero(member.take(self.order))
        p, n = self.order.shape[0], rows.size
        values = self.sorted_values.take(keep).reshape(p, n)
        order = self.order.take(keep).reshape(p, n)
        del keep  # the node's transients stay at three (p, n) arrays
        prefix = self.residual.take(order)
        np.cumsum(prefix, axis=1, out=prefix)  # sequential per feature row
        # candidate cuts, feature-major: boundaries between distinct
        # neighbouring values that leave min_leaf rows on each side
        lo, hi = self.min_leaf, n - self.min_leaf
        distinct = values[:, lo : hi + 1] != values[:, lo - 1 : hi]
        feat, left = np.divmod(np.flatnonzero(distinct), hi - lo + 1)
        if feat.size == 0:
            return None
        left += lo  # rows left of the cut
        r_total = float(self.residual[rows].sum())
        parent_score = r_total * r_total / n
        # gain = sl*sl/left + (r_total - sl)**2/(n - left) - parent_score, in place
        # and in that order, so every gain keeps the bits of the plain expression
        sl = prefix[feat, left - 1]
        gains = sl * sl
        gains /= left
        rest = r_total - sl
        rest *= rest
        rest /= n - left
        gains += rest
        gains -= parent_score
        # the first maximum: the lowest feature index, then the smallest cut
        b = int(gains.argmax())
        if not gains[b] > MIN_SPLIT_GAIN:
            return None
        j, c = int(feat[b]), int(left[b])
        return j, float(0.5 * (values[j, c - 1] + values[j, c]))


def fit(X, y, config):
    """Fit a boosted ensemble on feature matrix X (n, p) and 0/1 labels y."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise DataError(f"incompatible shapes X {X.shape}, y {y.shape}")
    if y.size == 0:
        raise DataError("no training rows")
    if not np.isfinite(X).all():
        raise DataError("features must be finite")
    if not ((y == 0.0) | (y == 1.0)).all():
        raise DataError("labels must be 0 or 1")
    if y.min() == y.max():
        raise DataError("training labels are single-class")

    # canonical row order: fit becomes invariant to the caller's row order
    canon = np.lexsort(tuple(X[:, j] for j in range(X.shape[1] - 1, -1, -1)) + (y,))
    X = np.ascontiguousarray(X[canon])
    y = y[canon]

    p_bar = float(y.mean())
    base_margin = float(np.log(p_bar / (1.0 - p_bar)))
    margins = np.full(y.size, base_margin)
    builder = _TreeBuilder(X, config.max_depth, config.min_samples_leaf)
    trees = []
    for _ in range(config.n_trees):
        p = _sigmoid(margins)
        tree, row_values = builder.build(residual=y - p, hessian=p * (1.0 - p))
        trees.append(tree)
        margins = margins + config.learning_rate * row_values
    return TreeEnsemble(
        base_margin=base_margin,
        trees=trees,
        learning_rate=config.learning_rate,
        n_features=X.shape[1],
    )


def predict_margin_batch(ensemble, X):
    """Additive margin (log-odds) for each row of X."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != ensemble.n_features:
        raise DataError(f"expected (n, {ensemble.n_features}) matrix, got shape {X.shape}")
    margins = np.full(X.shape[0], ensemble.base_margin)
    if not ensemble.trees:
        return margins
    # all trees' nodes stacked with int32 node numbers, children renumbered; a
    # leaf is its own left and right child (its feature -1 reads a column to no effect)
    feature, threshold, left, right, value = (
        np.concatenate([getattr(tree, name) for tree in ensemble.trees])
        for name in ("feature", "threshold", "left", "right", "value"))
    sizes = [tree.feature.size for tree in ensemble.trees]
    roots = np.cumsum([0] + sizes[:-1], dtype=np.int32)
    own, offset = np.arange(feature.size, dtype=np.int32), np.repeat(roots, sizes)
    left, right = (np.where(feature < 0, own, child + offset) for child in (left, right))
    # a block of rows down every tree, one level per step
    step = max(1, PREDICT_BLOCK_ELEMENTS // roots.size)
    for lo in range(0, X.shape[0], step):
        block, out = X[lo : lo + step], margins[lo : lo + step]
        node = np.broadcast_to(roots, (block.shape[0], roots.size))
        rows = np.arange(block.shape[0])[:, None]
        while (feature[node] >= 0).any():
            node = np.where(block[rows, feature[node]] <= threshold[node], left[node], right[node])
        for term in (ensemble.learning_rate * value[node]).T:  # trees in ascending order
            out += term
    return margins
