"""Gradient boosting for binary log loss over regression trees.

Each stage fits a depth-limited regression tree to the residual y - p with
plain squared-error split gain; leaf values take one Newton step
sum(residual) / sum(p*(1-p)) with a floored denominator. Split thresholds are
midpoints between consecutive distinct sorted feature values, so fitting is
exact and deterministic at this data scale. Training rows are brought into a
canonical order first, which makes the fit invariant to input row order.

Routing rule everywhere: x[feature] <= threshold goes left.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError

NEWTON_DENOM_FLOOR = 1e-12
MIN_SPLIT_GAIN = 1e-12


@dataclass
class GbmConfig:
    n_trees: int = 100
    learning_rate: float = 0.1
    max_depth: int = 3
    min_samples_leaf: int = 1

    def __post_init__(self):
        if self.n_trees < 0:
            raise DataError("n_trees must be >= 0")
        if self.learning_rate <= 0:
            raise DataError("learning_rate must be positive")
        if self.max_depth <= 0 or self.min_samples_leaf <= 0:
            raise DataError("max_depth and min_samples_leaf must be positive")


@dataclass
class DecisionTree:
    """Flat node arrays; feature == -1 marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n_samples: np.ndarray

    def predict(self, X):
        """Leaf value reached by each row of X."""
        X = np.asarray(X, dtype=np.float64)
        out = np.empty(X.shape[0], dtype=np.float64)
        stack = [(0, np.arange(X.shape[0]))]
        while stack:
            node, idx = stack.pop()
            if self.feature[node] < 0:
                out[idx] = self.value[node]
                continue
            go_left = X[idx, self.feature[node]] <= self.threshold[node]
            stack.append((self.left[node], idx[go_left]))
            stack.append((self.right[node], idx[~go_left]))
        return out


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
        # presorted row order per feature; node searches filter it by membership
        self.order = [np.argsort(X[:, j], kind="stable") for j in range(X.shape[1])]

    def build(self, residual, hessian):
        self.residual = residual
        self.hessian = hessian
        self.nodes = []  # dicts, frozen to arrays at the end
        self._grow(np.arange(self.X.shape[0]), depth=0)
        return DecisionTree(
            feature=np.asarray([nd["feature"] for nd in self.nodes], dtype=np.int32),
            threshold=np.asarray([nd["threshold"] for nd in self.nodes], dtype=np.float64),
            left=np.asarray([nd["left"] for nd in self.nodes], dtype=np.int32),
            right=np.asarray([nd["right"] for nd in self.nodes], dtype=np.int32),
            value=np.asarray([nd["value"] for nd in self.nodes], dtype=np.float64),
            n_samples=np.asarray([nd["n_samples"] for nd in self.nodes], dtype=np.int32),
        )

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
            "value": self._leaf_value(rows),
            "n_samples": rows.size,
        }
        self.nodes.append(node)
        if depth >= self.max_depth or rows.size < 2 * self.min_leaf or rows.size < 2:
            return node_id
        split = self._best_split(rows)
        if split is None:
            return node_id
        feat, thr = split
        go_left = self.X[rows, feat] <= thr
        node["feature"] = feat
        node["threshold"] = thr
        node["value"] = 0.0
        node["left"] = self._grow(rows[go_left], depth + 1)
        node["right"] = self._grow(rows[~go_left], depth + 1)
        return node_id

    def _best_split(self, rows):
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
            if gains[k] > MIN_SPLIT_GAIN and (best is None or gains[k] > best[0]):
                thr = 0.5 * (v[cut[k] - 1] + v[cut[k]])
                best = (float(gains[k]), j, float(thr))
        if best is None:
            return None
        return best[1], best[2]


def fit(X, y, config):
    """Fit a boosted ensemble on feature matrix X (n, p) and 0/1 labels y."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise DataError(f"incompatible shapes X {X.shape}, y {y.shape}")
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
        tree = builder.build(residual=y - p, hessian=p * (1.0 - p))
        trees.append(tree)
        margins = margins + config.learning_rate * tree.predict(X)
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
    for tree in ensemble.trees:
        margins += ensemble.learning_rate * tree.predict(X)
    return margins

