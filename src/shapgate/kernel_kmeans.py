"""Kernel k-means over attribution vectors.

Lloyd iteration with implicit centroids: the squared feature-space distance
from x to cluster c is
    H(x,x) - (2/|c|) sum_{j in c} H(x,x_j) + (1/|c|^2) sum_{j,l in c} H(x_j,x_l)
so only per-cluster sizes and pairwise kernel sums are stored. Seeding is
greedy farthest-point in feature space; restarts keep the lowest objective.
Ties everywhere break toward the lowest index.

A restart often reaches an assignment that an earlier restart of the same
fit passed through on its way to convergence. A Lloyd step depends only on
the assignment it starts from, so from there the restart would retrace that
run step for step and end on the same assignment and objective. When it can
still converge within MAX_ITER, it is skipped: fit keeps a run only on a
strictly lower objective, so the repeat could never have won.

The bits of every result are set by a few operations: kernel_matrix, the
greedy-seeding distance columns, the `K @ members` product and the einsum
of each cluster's pair sum, the distance expression of _point_cluster_dist2,
and every argmin and argmax. The bookkeeping around them (the indicator
buffer refilled in place, the sizes counted by bincount, the distances
computed in place) may change only if those operations keep their order and
their operands; the loop oracles in tests/oracles.py check the bytes.
"""

import contextlib
import math
import re
from dataclasses import dataclass

import numpy as np

from . import seeds
from .errors import DataError, NumericalError

MAX_ITER = 300  # Lloyd steps per restart
N_RESTARTS = 10  # seeded restarts per fit; the lowest objective wins
# elements of the outer-sum block a radial kernel_matrix holds beside its
# result: 128 KB, and numpy's broadcast add takes up to 128 KB of buffers
# more, together about a fifth of the n x n result at n = 400
RADIAL_BLOCK_ELEMENTS = 1 << 14


@dataclass(frozen=True)
class KernelSpec:
    kind: str  # linear | polynomial | radial
    degree: int | None = None
    coef0: float | None = None
    gamma: float | None = None

    def __post_init__(self):
        if self.kind == "linear":
            ok = self.degree is None and self.coef0 is None and self.gamma is None
        elif self.kind == "polynomial":
            ok = (
                isinstance(self.degree, int) and self.degree >= 1
                and self.coef0 is not None and math.isfinite(self.coef0)
                and self.gamma is None
            )
        elif self.kind == "radial":
            ok = (
                self.degree is None and self.coef0 is None
                and self.gamma is not None and math.isfinite(self.gamma) and self.gamma > 0
            )
        else:
            raise DataError(f"unknown kernel kind {self.kind!r}")
        if not ok:
            raise DataError(f"invalid parameters for {self.kind} kernel: {self}")

    def label(self):
        if self.kind == "linear":
            return "linear"
        if self.kind == "polynomial":
            return f"poly_d{self.degree}_c{_label_number(self.coef0)}"
        return f"rbf_g{_label_number(self.gamma)}"


def _label_number(v):
    # :g keeps 6 significant digits; fall back to repr when that loses the
    # value, so spec_from_label(spec.label()) rebuilds the same spec
    text = f"{v:g}"
    return text if float(text) == v else repr(float(v))


def _label_float(text, label):
    # the label pattern also admits non-numbers such as "1e", "." or "1-"
    try:
        return float(text)
    except ValueError:
        raise DataError(f"bad number {text!r} in kernel label {label!r}") from None


def spec_from_label(label):
    """Inverse of KernelSpec.label(), for CLI flags and manifests."""
    if label == "linear":
        return KernelSpec("linear")
    m = re.fullmatch(r"poly_d(\d+)_c([0-9.eE+-]+)", label)
    if m:
        return KernelSpec("polynomial", degree=int(m.group(1)),
                          coef0=_label_float(m.group(2), label))
    m = re.fullmatch(r"rbf_g([0-9.eE+-]+)", label)
    if m:
        return KernelSpec("radial", gamma=_label_float(m.group(1), label))
    raise DataError(
        f"unknown kernel label {label!r}; expected 'linear', 'poly_d<D>_c<C>' or 'rbf_g<G>'"
    )


@np.errstate(over="ignore", invalid="ignore")  # overflow gives inf; see _require_finite
def kernel_matrix(spec, A, B=None):
    """Pairwise kernel values H(A_i, B_j), shape (len(A), len(B)).

    The result is the one float64 matrix the evaluation holds: every kind is
    computed inside the buffer of A @ B.T, and a radial kernel takes its
    outer sum of squared norms a block of rows at a time."""
    A = np.asarray(A, dtype=np.float64)
    B = A if B is None else np.asarray(B, dtype=np.float64)
    if A.shape[1] != B.shape[1]:
        raise DataError(f"kernel dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
    # each step works in place, in the order of the textbook expressions
    # (A @ B.T + c) ** d and exp(-gamma * max(|a|^2 + |b|^2 - 2 A @ B.T, 0)),
    # so every value is rounded as they round it. G comes from one product:
    # OpenBLAS rounds a product of another shape differently
    G = A @ B.T
    if spec.kind == "linear":
        return G
    if spec.kind == "polynomial":
        G += spec.coef0
        G **= spec.degree
        return G
    G *= 2.0
    a2 = np.sum(A * A, axis=1)
    b2 = a2 if B is A else np.sum(B * B, axis=1)
    # only the outer sum makes a temporary, so only it is taken in blocks
    step = max(1, RADIAL_BLOCK_ELEMENTS // b2.size)
    for lo in range(0, a2.size, step):
        np.subtract(a2[lo : lo + step, None] + b2, G[lo : lo + step], out=G[lo : lo + step])
    np.maximum(G, 0.0, out=G)
    G *= -spec.gamma
    np.exp(G, out=G)
    return G


@np.errstate(over="ignore", invalid="ignore")
def kernel_diag(spec, X):
    """H(X_i, X_i) for each row, in closed form: the diagonal of kernel_matrix(spec, X)."""
    X = np.asarray(X, dtype=np.float64)
    if spec.kind == "radial":
        return np.ones(X.shape[0])
    sq = np.sum(X * X, axis=1)
    if spec.kind == "linear":
        return sq
    return (sq + spec.coef0) ** spec.degree


def _require_finite(spec, *values):
    """NumericalError on a non-finite kernel value: finite parameters can
    still overflow, e.g. a high polynomial degree or a huge coef0. A NaN or
    an infinity shows in an array's min or max, which allocate no mask."""
    for v in values:
        if v.size and not (math.isfinite(v.min()) and math.isfinite(v.max())):
            raise NumericalError(f"kernel {spec.label()} gives non-finite values on these vectors")


@dataclass
class ClusterModel:
    spec: KernelSpec
    k: int
    vectors: np.ndarray  # (n, p) training rows
    assignment: np.ndarray  # (n,) cluster ids
    sizes: np.ndarray  # (k,) members per cluster
    pair_sums: np.ndarray  # (k,) sum_{j,l in c} H(x_j, x_l)
    objective: float  # total within-cluster feature-space sum of squares


def onehot(assignment, k):
    """(len(assignment), k) indicator matrix: row i is 1.0 in column assignment[i]."""
    out = np.zeros((len(assignment), k))
    out[np.arange(len(assignment)), assignment] = 1.0
    return out


def _cluster_sums(K, assignment, k, members, rows):
    """(sizes, pair_sums, cross) of an assignment. `members` and `rows` are an
    (n, k) buffer refilled with the indicator matrix and np.arange(n), which a
    Lloyd run allocates once."""
    members.fill(0.0)
    members[rows, assignment] = 1.0
    # the counts members.sum(axis=0) would give, as the same float64 integers
    sizes = np.bincount(assignment, minlength=k).astype(np.float64)
    cross = K @ members  # cross[i, c] = sum_{j in c} K[i, j]
    pair_sums = np.einsum("ic,ic->c", members, cross)
    return sizes, pair_sums, cross


def _point_cluster_dist2(K_diag, cross, sizes, pair_sums):
    # rows: points, cols: clusters; empty clusters get +inf. Computed in place,
    # in the order of diag - 2 * cross / sizes + pair_sums / sizes**2.
    empty = not sizes.all()
    with np.errstate(divide="ignore", invalid="ignore") if empty else contextlib.nullcontext():
        d = cross * 2.0
        d /= sizes
        np.subtract(K_diag[:, None], d, out=d)
        d += pair_sums / sizes**2
    if empty:
        d[:, sizes == 0] = np.inf
    return d


def _repair_empty(assignment, dist_own, sizes):
    """Move the worst-placed point from a multi-member cluster into each empty one."""
    k = sizes.size
    for c in range(k):
        if sizes[c] > 0:
            continue
        movable = sizes[assignment] >= 2
        if not np.any(movable):
            raise DataError("cannot repair empty cluster: no donor cluster has 2 members")
        candidates = np.where(movable, dist_own, -np.inf)
        worst = int(np.argmax(candidates))
        sizes[assignment[worst]] -= 1
        assignment[worst] = c
        sizes[c] = 1
    return assignment


def _greedy_seed_assignment(K, diag, k, rng):
    n = K.shape[0]
    # squared feature-space distance of every point to each chosen center
    c = int(rng.integers(n))
    dists = [diag - 2.0 * K[:, c] + diag[c]]
    best = dists[0]  # distance to the nearest chosen center
    for _ in range(1, k):
        c = int(np.argmax(best))
        dists.append(diag - 2.0 * K[:, c] + diag[c])
        best = np.minimum(best, dists[-1])
    return np.argmin(np.stack(dists, axis=1), axis=1)


def _lloyd(K, diag, k, start, max_iter, seen):
    """Lloyd steps from the start assignment; (assignment, sizes, pair_sums, objective).
    `diag` is the diagonal of K.

    `seen` maps the assignments that earlier converged runs of the same fit
    started a step with (as compact bytes) to the number of further steps
    that run took to converge. A run that reaches one of them with enough
    steps left would end exactly as that run did; it records its own steps
    and returns None instead.
    """
    n = K.shape[0]
    rows = np.arange(n)
    members = np.empty((n, k))  # the indicator matrix, refilled each step
    assignment = start.copy()
    key_type = np.min_scalar_type(k - 1)
    keys = []  # this run's step-start assignments, as `seen` keys
    for it in range(max_iter):
        key = assignment.astype(key_type).tobytes()
        left = seen.get(key)
        if left is not None and it + left < max_iter:
            for i, prior in enumerate(keys):
                seen[prior] = it - i + left
            return None
        keys.append(key)
        sizes, pair_sums, cross = _cluster_sums(K, assignment, k, members, rows)
        if not sizes.all():
            d = _point_cluster_dist2(diag, cross, sizes, pair_sums)
            dist_own = d[rows, assignment]
            assignment = _repair_empty(assignment, dist_own, sizes.copy())
            sizes, pair_sums, cross = _cluster_sums(K, assignment, k, members, rows)
        d = _point_cluster_dist2(diag, cross, sizes, pair_sums)
        new_assignment = d.argmin(axis=1)
        if (new_assignment == assignment).all():
            # converged: the sums and distances above are this assignment's
            for i, prior in enumerate(keys):
                seen[prior] = it - i
            break
        assignment = new_assignment
    else:
        # max_iter ran out: score the last assignment as it stands, unrepaired
        sizes, pair_sums, cross = _cluster_sums(K, assignment, k, members, rows)
        d = _point_cluster_dist2(diag, cross, sizes, pair_sums)
    obj = float(np.maximum(d[rows, assignment], 0.0).sum())
    return assignment, sizes, pair_sums, obj


def fit(vectors, k, spec, seed):
    """Kernel k-means; returns the best ClusterModel over seeded restarts."""
    vectors = np.asarray(vectors, dtype=np.float64)
    n = vectors.shape[0]
    if k < 1 or k > n:
        raise DataError(f"k={k} must be in [1, n={n}]")
    K = kernel_matrix(spec, vectors)
    _require_finite(spec, K)
    diag = np.diag(K).copy()
    best = None
    seen = {}
    for r in range(N_RESTARTS):
        start = _greedy_seed_assignment(K, diag, k, seeds.rng("restart", seed, r))
        run = _lloyd(K, diag, k, start, MAX_ITER, seen)
        if run is not None and (best is None or run[3] < best[3]):
            best = run
    assignment, sizes, pair_sums, obj = best
    return ClusterModel(
        spec=spec, k=k, vectors=vectors, assignment=assignment,
        sizes=sizes, pair_sums=pair_sums, objective=obj,
    )


def _centroid_dist2(model, X):
    """(len(X), k) squared feature-space distances to the implicit centroids."""
    X = np.asarray(X, dtype=np.float64)
    Kx = kernel_matrix(model.spec, X, model.vectors)
    diag = kernel_diag(model.spec, X)
    _require_finite(model.spec, Kx, diag)
    return _point_cluster_dist2(diag, Kx @ onehot(model.assignment, model.k),
                                model.sizes, model.pair_sums)


def assign_batch(model, X):
    """Nearest implicit centroid per row; ties break toward the lowest cluster id."""
    return np.argmin(_centroid_dist2(model, X), axis=1)
