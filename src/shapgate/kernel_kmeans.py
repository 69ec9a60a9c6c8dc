"""Kernel k-means over attribution vectors.

Lloyd iteration with implicit centroids: the squared feature-space distance
from x to cluster c is
    H(x,x) - (2/|c|) sum_{j in c} H(x,x_j) + (1/|c|^2) sum_{j,l in c} H(x_j,x_l)
so only per-cluster sizes and pairwise kernel sums are stored. Seeding is
greedy farthest-point in feature space; restarts keep the lowest objective.
Ties everywhere break toward the lowest index.
"""

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError

MAX_ITER = 300  # Lloyd steps per restart
N_RESTARTS = 10  # seeded restarts per fit; the lowest objective wins


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
    """Pairwise kernel values H(A_i, B_j), shape (len(A), len(B))."""
    A = np.asarray(A, dtype=np.float64)
    B = A if B is None else np.asarray(B, dtype=np.float64)
    if A.shape[1] != B.shape[1]:
        raise DataError(f"kernel dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
    if spec.kind == "linear":
        return A @ B.T
    if spec.kind == "polynomial":
        return (A @ B.T + spec.coef0) ** spec.degree
    sq = (
        np.sum(A * A, axis=1)[:, None]
        + np.sum(B * B, axis=1)[None, :]
        - 2.0 * (A @ B.T)
    )
    return np.exp(-spec.gamma * np.maximum(sq, 0.0))


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
    still overflow, e.g. a high polynomial degree or a huge coef0."""
    if not all(np.all(np.isfinite(v)) for v in values):
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


def _cluster_sums(K, assignment, k):
    onehot = np.zeros((K.shape[0], k))
    onehot[np.arange(K.shape[0]), assignment] = 1.0
    sizes = onehot.sum(axis=0)
    cross = K @ onehot  # cross[i, c] = sum_{j in c} K[i, j]
    pair_sums = np.einsum("ic,ic->c", onehot, cross)
    return sizes, pair_sums, cross


def _point_cluster_dist2(K_diag, cross, sizes, pair_sums):
    # rows: points, cols: clusters; empty clusters get +inf
    with np.errstate(divide="ignore", invalid="ignore"):
        d = K_diag[:, None] - 2.0 * cross / sizes[None, :] + (pair_sums / sizes**2)[None, :]
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


def _greedy_seed_assignment(K, k, rng):
    n = K.shape[0]
    diag = np.diag(K).copy()
    centers = [int(rng.integers(n))]
    # distance in feature space to the nearest chosen center
    best = diag - 2.0 * K[:, centers[0]] + diag[centers[0]]
    for _ in range(1, k):
        nxt = int(np.argmax(best))
        centers.append(nxt)
        cand = diag - 2.0 * K[:, nxt] + diag[nxt]
        best = np.minimum(best, cand)
    dists = np.stack(
        [diag - 2.0 * K[:, c] + diag[c] for c in centers], axis=1
    )
    return np.argmin(dists, axis=1)


def _lloyd(K, k, start, max_iter):
    """Lloyd steps from the start assignment; (assignment, sizes, pair_sums, objective)."""
    n = K.shape[0]
    diag = np.diag(K).copy()
    assignment = start.copy()
    for _ in range(max_iter):
        sizes, pair_sums, cross = _cluster_sums(K, assignment, k)
        if np.any(sizes == 0):
            d = _point_cluster_dist2(diag, cross, sizes, pair_sums)
            dist_own = d[np.arange(n), assignment]
            assignment = _repair_empty(assignment, dist_own, sizes.copy())
            sizes, pair_sums, cross = _cluster_sums(K, assignment, k)
        d = _point_cluster_dist2(diag, cross, sizes, pair_sums)
        new_assignment = np.argmin(d, axis=1)
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
    sizes, pair_sums, cross = _cluster_sums(K, assignment, k)
    d = _point_cluster_dist2(diag, cross, sizes, pair_sums)
    obj = float(np.maximum(d[np.arange(n), assignment], 0.0).sum())
    return assignment, sizes, pair_sums, obj


def fit(vectors, k, spec, seed=0):
    """Kernel k-means; returns the best ClusterModel over seeded restarts."""
    vectors = np.asarray(vectors, dtype=np.float64)
    n = vectors.shape[0]
    if k < 1 or k > n:
        raise DataError(f"k={k} must be in [1, n={n}]")
    K = kernel_matrix(spec, vectors)
    _require_finite(spec, K)
    best = None
    for r in range(N_RESTARTS):
        start = _greedy_seed_assignment(K, k, np.random.default_rng([seed, 0xC1, r]))
        run = _lloyd(K, k, start, MAX_ITER)
        if best is None or run[3] < best[3]:
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
    onehot = np.zeros((model.vectors.shape[0], model.k))
    onehot[np.arange(model.vectors.shape[0]), model.assignment] = 1.0
    return _point_cluster_dist2(diag, Kx @ onehot, model.sizes, model.pair_sums)


def assign_batch(model, X):
    """Nearest implicit centroid per row; ties break toward the lowest cluster id."""
    return np.argmin(_centroid_dist2(model, X), axis=1)
