"""Interventional SHAP attributions for tree ensembles.

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
Inputs must be finite: a non-finite entry falls outside every interval.

The tables are built a tree at a time. The contributing leaves become
padded (leaves, width) boxes; a padded slot is (-inf, inf] on feature 0,
which every row meets, so it joins neither A nor B. One gather-and-compare
per chunk of leaves gives each explained and each background row a bit mask
per leaf. One bincount over (leaf, mask) keys then gives each leaf's x masks
and z masks, ascending, with their row counts; a cumsum over mask presence
gives each row the rank of its x mask. Leaves with similar mask counts
share one (leaves, x masks, z masks, width) coefficient block, padded with
zero-count z masks. _BLOCK_ELEMENTS caps both a chunk's gathered masks and
a block.
Two orders keep every byte equal to the per-leaf loop:
- each table entry is a sequential cumsum over z in ascending mask order;
  the +0.0 terms of padded or unobserved z change no partial sum;
- each leaf's contribution goes into phi in tree, then depth-first leaf,
  order. phi starts at +0.0 and never holds -0.0, so a ±0.0 term is exact.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import gbm, seeds
from .errors import DataError

MAX_PATH_FEATURES = 12  # per-leaf unique-feature cap for the mask tables
BACKGROUND_CAP = 1000  # background rows; more training rows are subsampled
_BLOCK_ELEMENTS = 1 << 14  # cap on a coefficient block and on a leaf chunk's masks
_SMALL_BLOCK = _BLOCK_ELEMENTS >> 3  # smaller blocks are never split for padding


@dataclass
class ShapMatrix:
    values: np.ndarray  # (n, p), row-aligned with the explained rows
    base_value: float
    feature_names: list[str] | None = None  # the CSV header; the pipeline attaches it


@dataclass
class Background:
    rows: np.ndarray  # (m, p) reference rows, drawn from training data

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.float64)
        if self.rows.ndim != 2 or self.rows.shape[0] == 0:
            raise DataError("background must be a non-empty (m, p) matrix")
        if not np.isfinite(self.rows).all():
            raise DataError("background rows must be finite")


def make_background(values, train_indices, seed):
    """Training rows as the SHAP background, subsampled only above BACKGROUND_CAP."""
    train_indices = np.asarray(train_indices)
    if train_indices.size == 0:
        raise DataError("background must be a non-empty (m, p) matrix")
    if train_indices.size > BACKGROUND_CAP:
        rng = seeds.rng("background_subsample", seed)
        train_indices = np.sort(rng.choice(train_indices, size=BACKGROUND_CAP, replace=False))
    return Background(rows=np.asarray(values, dtype=np.float64)[train_indices])


def _tree_boxes(tree):
    """Boxes of the leaves that can contribute, in depth-first order.

    Returns (values, paths, feats, lo, hi): each kept leaf's value and sorted
    path features, then (leaves, width) arrays of those features and their
    intervals (lo, hi], padded to the widest path with feature 0 on
    (-inf, inf]. Unreachable leaves, leaves with no path feature and zero-valued
    leaves are left out: they add nothing.
    """
    feature, threshold = tree.feature.tolist(), tree.threshold.tolist()
    left, right, value = tree.left.tolist(), tree.right.tolist(), tree.value.tolist()
    values, paths, los, his = [], [], [], []
    stack = [(0, {})]
    while stack:
        node, box = stack.pop()
        f = feature[node]
        if f < 0:
            if box and value[node] != 0.0:
                keys = sorted(box)
                values.append(value[node])
                paths.append(keys)
                los.append([box[k][0] for k in keys])
                his.append([box[k][1] for k in keys])
            continue
        thr = threshold[node]
        lo, hi = box.get(f, (-np.inf, np.inf))
        if lo < min(hi, thr):  # left branch feasible
            left_box = dict(box)
            left_box[f] = (lo, min(hi, thr))
            stack.append((left[node], left_box))
        if max(lo, thr) < hi:  # right branch feasible
            right_box = dict(box)
            right_box[f] = (max(lo, thr), hi)
            stack.append((right[node], right_box))
    width = max(map(len, paths), default=0)

    def padded(rows, fill, dtype):
        rows = [r + [fill] * (width - len(r)) for r in rows]
        return np.array(rows, dtype=dtype).reshape(len(rows), width)

    return (np.array(values), paths, padded(paths, 0, np.intp),
            padded(los, -np.inf, np.float64), padded(his, np.inf, np.float64))


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
_POPCOUNT = np.array([bin(v).count("1") for v in range(1 << MAX_PATH_FEATURES)], dtype=np.int8)


def _path_masks(X, feats, lo, hi, pow2):
    """(rows, leaves) masks: bit k set when the row meets the leaf's k-th interval."""
    values = X[:, feats]
    inside = values > lo
    inside &= values <= hi
    return np.einsum("ilk,k->il", inside, pow2)


def _observed(masks, width):
    """Each leaf's distinct masks, ascending, from one bincount over all leaves.

    masks is (rows, leaves). Returns the masks padded with 0 to the most any
    leaf has, their row counts (0.0 on the padding), how many each leaf has,
    and the (leaves, 2**width) rank of every mask among its leaf's.
    """
    n_leaves = masks.shape[1]
    keys = masks + (np.arange(n_leaves) << width)
    counts = np.bincount(keys.ravel(), minlength=n_leaves << width).reshape(n_leaves, -1)
    present = counts > 0
    rank = np.cumsum(present, axis=1) - 1
    size = rank[:, -1] + 1
    leaf, mask = np.nonzero(present)
    slot = rank[leaf, mask]
    observed = np.zeros((n_leaves, int(size.max())), dtype=np.int16)
    observed[leaf, slot] = mask
    weight = np.zeros(observed.shape)
    weight[leaf, slot] = counts[leaf, mask]
    return observed, weight, size, rank


def _blocks(n_x, n_z, width):
    """Groups of leaves that share one coefficient block.

    Leaves join in ascending order of their own n_x * n_z cells. A group
    closes before a leaf that would take its padded block past
    _BLOCK_ELEMENTS, or past twice the group's own cells once the block is
    larger than _SMALL_BLOCK.
    """
    own = (n_x * n_z).tolist()
    n_x, n_z = n_x.tolist(), n_z.tolist()
    groups, group = [], []
    g = z = total = 0
    for leaf in sorted(range(len(own)), key=own.__getitem__):
        g2, z2, total2 = max(g, n_x[leaf]), max(z, n_z[leaf]), total + own[leaf]
        cells = (len(group) + 1) * g2 * z2
        if group and (cells * width > _BLOCK_ELEMENTS
                      or (cells > 2 * total2 and cells * width > _SMALL_BLOCK)):
            groups.append(group)
            group, g2, z2, total2 = [], n_x[leaf], n_z[leaf], own[leaf]
        group.append(leaf)
        g, z, total = g2, z2, total2
    groups.append(group)
    return groups


def _leaf_tables(x, z, weight, width):
    """(leaves, features, x masks) Shapley tables of two-sided unanimity games.

    x (leaves, G) and z (leaves, Z) are path masks, weight (leaves, Z) the
    background rows behind each z mask. Entry [l, k, g] is the sum over z in
    ascending order of feature k's row-weighted coefficient for the pair
    (x[l, g], z).
    """
    xx = x[:, :, None]
    zz = z[:, None, :]
    live = (xx | zz) == (1 << width) - 1  # every path feature met by x or z
    a = _POPCOUNT[xx & ~zz]
    b = _POPCOUNT[zz & ~xx]
    w = weight[:, None, :]
    plus = np.where(live, w * _CP[a, b], 0.0)[..., None]
    minus = np.where(live, w * _CM[a, b], 0.0)[..., None]
    bits = 1 << np.arange(width, dtype=np.int16)
    in_x = ((xx & bits) != 0)[:, :, None, :]  # (L, G, 1, Q)
    in_z = ((z[:, :, None] & bits) != 0)[:, None, :, :]  # (L, 1, Z, Q)
    # +plus on features x alone meets, -minus on those z alone meets, +0.0
    # elsewhere: the same terms as where(A, plus, 0) - where(B, minus, 0)
    terms = np.where(in_x & ~in_z, plus, 0.0)
    np.subtract(terms, minus, out=terms, where=in_z & ~in_x)
    # sequential sum over z in ascending order; a pairwise .sum(axis=2)
    # would round differently once there are 8 or more terms
    return np.cumsum(terms, axis=2)[:, :, -1].transpose(0, 2, 1)


def _accumulate_tree(phi, tree, Xf, Xb, scale):
    """Add one tree's attributions (times scale) into phi, shape (n_f, p)."""
    values, paths, feats, lo, hi = _tree_boxes(tree)
    if not paths or Xf.shape[0] == 0:
        return  # a root-only tree, no leaf that contributes, or no rows
    width = feats.shape[1]
    if width > MAX_PATH_FEATURES:
        raise DataError(
            f"leaf path uses {width} unique features; attribution supports at most {MAX_PATH_FEATURES}"
        )
    coef = scale * values / Xb.shape[0]
    pow2 = 1 << np.arange(width, dtype=np.int16)
    step = max(1, _BLOCK_ELEMENTS // (max(Xf.shape[0], Xb.shape[0], 1 << width) * width))
    for start in range(0, len(paths), step):
        leaves = slice(start, start + step)
        xmask = _path_masks(Xf, feats[leaves], lo[leaves], hi[leaves], pow2)
        zmask = _path_masks(Xb, feats[leaves], lo[leaves], hi[leaves], pow2)
        xs, _, n_x, rank = _observed(xmask, width)
        zs, weight, n_z, _ = _observed(zmask, width)
        n_leaves, n_g = xs.shape
        tables = np.zeros((n_leaves, width, n_g))
        for group in _blocks(n_x, n_z, width):
            g, z = int(n_x[group].max()), int(n_z[group].max())
            g_step = max(1, _BLOCK_ELEMENTS // (len(group) * z * width))
            for g0 in range(0, g, g_step):
                g1 = min(g, g0 + g_step)
                tables[group, :, g0:g1] = _leaf_tables(
                    xs[group, g0:g1], zs[group, :z], weight[group, :z], width)
        inverse = rank[np.arange(n_leaves), xmask].T  # (leaves, n_f)
        scaled = coef[leaves, None, None] * tables
        offsets = np.arange(0, width * n_g, n_g)[:, None]
        # leaf by leaf in depth-first order: each phi entry sums its terms in
        # tree, then leaf order, and float addition does not reassociate
        for i, path in enumerate(paths[leaves]):
            contrib = np.take(scaled[i], offsets + inverse[i])  # (width, n_f)
            for k, f in enumerate(path):
                phi[:, f] += contrib[k]


def _check_inputs(ensemble, X, bg):
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != ensemble.n_features:
        raise DataError(f"expected (n, {ensemble.n_features}) matrix, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise DataError("features must be finite")
    if bg.rows.shape[1] != ensemble.n_features:
        raise DataError(
            f"background has {bg.rows.shape[1]} features, ensemble expects {ensemble.n_features}"
        )
    return X


def shap_matrix(ensemble, X, bg):
    """Interventional SHAP of the rows of X, one attribution row per row."""
    X = _check_inputs(ensemble, X, bg)
    phi = np.zeros_like(X)
    for tree in ensemble.trees:
        _accumulate_tree(phi, tree, X, bg.rows, ensemble.learning_rate)
    base_value = float(gbm.predict_margin_batch(ensemble, bg.rows).mean())
    return ShapMatrix(values=phi, base_value=base_value)


def shap_matrix_to_csv(sm):
    """CSV dump: one row per observation, final column is the base value."""
    header = ",".join(sm.feature_names + ["base_value"])
    lines = [header]
    for row in sm.values:
        lines.append(",".join(f"{v!r}" for v in row.tolist()) + f",{sm.base_value!r}")
    return "\n".join(lines) + "\n"
