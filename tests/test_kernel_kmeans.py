import numpy as np
import pytest

from shapgate import kernel_kmeans as kk
from shapgate import pipeline
from shapgate.errors import DataError, NumericalError

LINEAR = kk.KernelSpec("linear")


def blobs(rng, n_per=30, offset=10.0, p=3):
    a = rng.normal(size=(n_per, p)) + offset
    b = rng.normal(size=(n_per, p)) - offset
    X = np.vstack([a, b])
    truth = np.array([0] * n_per + [1] * n_per)
    perm = rng.permutation(2 * n_per)
    return X[perm], truth[perm]


def plain_kmeans(X, k, init_assignment, max_iter=300):
    """Explicit-centroid Lloyd with the same tie and repair rules. Test oracle."""
    assignment = init_assignment.copy()
    cents = None
    for _ in range(max_iter):
        sizes = np.bincount(assignment, minlength=k)
        if np.any(sizes == 0):
            cents = np.vstack(
                [X[assignment == c].mean(axis=0) if sizes[c] else np.zeros(X.shape[1])
                 for c in range(k)]
            )
            dist_own = ((X - cents[assignment]) ** 2).sum(axis=1)
            for c in range(k):
                if sizes[c] > 0:
                    continue
                movable = sizes[assignment] >= 2
                worst = int(np.argmax(np.where(movable, dist_own, -np.inf)))
                sizes[assignment[worst]] -= 1
                assignment[worst] = c
                sizes[c] = 1
        cents = np.vstack([X[assignment == c].mean(axis=0) for c in range(k)])
        d = ((X[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        new = np.argmin(d, axis=1)
        if np.array_equal(new, assignment):
            break
        assignment = new
    inertia = float(((X - cents[assignment]) ** 2).sum())
    return assignment, inertia


def lloyd_objectives(K, k, start):
    """Objective after 1, 2, ... Lloyd steps from start, up to convergence."""
    objectives, previous = [], None
    for steps in range(1, kk.MAX_ITER + 1):
        assignment, _, _, obj = kk._lloyd(K, k, start, steps)
        objectives.append(obj)
        if previous is not None and np.array_equal(assignment, previous):
            break
        previous = assignment
    return objectives


def quad_map(X):
    # explicit feature map of the c=0 degree-2 polynomial kernel
    n, p = X.shape
    cols = [X[:, i] * X[:, i] for i in range(p)]
    for i in range(p):
        for j in range(i + 1, p):
            cols.append(np.sqrt(2.0) * X[:, i] * X[:, j])
    return np.stack(cols, axis=1)


def test_kernel_diag_and_matrix_hand_values():
    u = np.array([[1.0, 0.0]])
    v = np.array([[0.0, 1.0]])
    w = np.array([[1.0, 1.0]])  # u.w = 1
    radial = kk.KernelSpec("radial", gamma=0.5)
    poly = kk.KernelSpec("polynomial", degree=2, coef0=1.0)
    assert kk.kernel_matrix(LINEAR, u, v)[0, 0] == 0.0
    assert kk.kernel_matrix(radial, u, u)[0, 0] == 1.0
    assert kk.kernel_matrix(poly, u, w)[0, 0] == 4.0
    X = np.array([[1.0, 2.0], [0.0, 0.0]])
    assert kk.kernel_diag(LINEAR, X).tolist() == [5.0, 0.0]
    assert kk.kernel_diag(radial, X).tolist() == [1.0, 1.0]
    assert kk.kernel_diag(poly, X).tolist() == [36.0, 1.0]


def test_kernel_symmetry_and_radial_range():
    rng = np.random.default_rng(2)
    specs = [
        LINEAR,
        kk.KernelSpec("polynomial", degree=3, coef0=1.0),
        kk.KernelSpec("radial", gamma=0.1),
    ]
    for _ in range(50):
        u = rng.normal(size=(1, 4))
        v = rng.normal(size=(1, 4))
        for spec in specs:
            assert kk.kernel_matrix(spec, u, v)[0, 0] == kk.kernel_matrix(spec, v, u)[0, 0]
    rbf = kk.kernel_matrix(kk.KernelSpec("radial", gamma=2.0), rng.normal(size=(20, 3)))
    assert np.all(rbf > 0.0) and np.all(rbf <= 1.0)


def test_kernel_diag_equals_matrix_diagonal():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(30, 5))
    specs = [
        LINEAR,
        kk.KernelSpec("polynomial", degree=2, coef0=0.0),
        kk.KernelSpec("polynomial", degree=3, coef0=1.0),
        kk.KernelSpec("radial", gamma=0.1),
        kk.KernelSpec("radial", gamma=10.0),
    ]
    for spec in specs:
        np.testing.assert_allclose(
            kk.kernel_diag(spec, X), np.diag(kk.kernel_matrix(spec, X)), rtol=1e-12, atol=1e-12
        )


def test_kernel_label_round_trips():
    default_specs = [spec for spec, _ in pipeline.default_grid()[::5]]
    assert [spec.label() for spec in default_specs] == [
        "linear", "poly_d2_c0", "poly_d2_c1", "poly_d3_c0", "poly_d3_c1",
        "rbf_g0.01", "rbf_g0.1", "rbf_g1", "rbf_g10",
    ]
    specs = default_specs + [
        kk.KernelSpec("radial", gamma=0.1234567),
        kk.KernelSpec("polynomial", degree=2, coef0=0.3333333),
        kk.KernelSpec("polynomial", degree=3, coef0=-1e-07),
    ]
    for spec in specs:
        assert kk.spec_from_label(spec.label()) == spec


def test_kernel_spec_validation():
    with pytest.raises(DataError):
        kk.KernelSpec("sigmoid")
    with pytest.raises(DataError):
        kk.KernelSpec("linear", degree=2)
    with pytest.raises(DataError):
        kk.KernelSpec("polynomial", degree=2)  # missing coef0
    with pytest.raises(DataError):
        kk.KernelSpec("radial", gamma=-1.0)
    with pytest.raises(DataError):
        kk.kernel_matrix(LINEAR, np.zeros((1, 3)), np.zeros((1, 4)))
    # a number that parses to infinity is rejected like one that does not parse
    for label in ("rbf_g1e", "rbf_g.", "poly_d2_c1-", "sigmoid", "rbf_g1e999", "poly_d2_c1e999"):
        with pytest.raises(DataError):
            kk.spec_from_label(label)


def test_linear_distance_equals_explicit_mean():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(40, 5))
    model = kk.fit(X, k=3, spec=LINEAR, seed=1)
    d = kk._centroid_dist2(model, X)
    assert d.shape == (40, 3) and np.all(d >= -1e-9)
    for c in range(3):
        mean = X[model.assignment == c].mean(axis=0)
        for i in range(0, 40, 7):
            explicit = float(((X[i] - mean) ** 2).sum())
            assert d[i, c] == pytest.approx(explicit, abs=1e-9)


def test_singleton_cluster_self_distance_zero():
    X = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 0.0]])
    model = kk.fit(X, k=3, spec=LINEAR, seed=0)
    own = model.assignment[1]
    assert kk._centroid_dist2(model, X[1:2])[0, own] == 0.0


def test_poly_d2_c0_matches_explicit_quadratic_map():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(24, 4))
    spec = kk.KernelSpec("polynomial", degree=2, coef0=0.0)
    model = kk.fit(X, k=3, spec=spec, seed=3)
    mapped = quad_map(X)
    d = kk._centroid_dist2(model, X)
    assert np.all(d >= -1e-9)
    for c in range(3):
        mean = mapped[model.assignment == c].mean(axis=0)
        for i in range(0, 24, 5):
            explicit = float(((quad_map(X[i : i + 1])[0] - mean) ** 2).sum())
            assert d[i, c] == pytest.approx(explicit, abs=1e-9)


def test_separated_blobs_recovered_exactly():
    rng = np.random.default_rng(13)
    X, truth = blobs(rng)
    model = kk.fit(X, k=2, spec=LINEAR, seed=5)
    # same partition up to label swap
    agree = (model.assignment == truth).mean()
    assert agree in (0.0, 1.0)


def test_k_equals_n_gives_zero_objective():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(12, 3))
    model = kk.fit(X, k=12, spec=LINEAR, seed=0)
    assert np.array_equal(np.sort(model.assignment), np.arange(12))
    assert model.objective == 0.0


def test_linear_kernel_matches_plain_kmeans_oracle():
    rng = np.random.default_rng(19)
    for trial in range(5):
        X = rng.normal(size=(50, 4)) + 3.0 * rng.integers(0, 3, size=(50, 1))
        init = rng.integers(0, 4, size=50)
        init[:4] = np.arange(4)  # every cluster starts non-empty
        assignment, _, _, obj = kk._lloyd(kk.kernel_matrix(LINEAR, X), 4, init, kk.MAX_ITER)
        oracle_assign, oracle_inertia = plain_kmeans(X, 4, init)
        assert np.array_equal(assignment, oracle_assign)
        assert obj == pytest.approx(oracle_inertia, abs=1e-9)


def test_lloyd_objective_monotone():
    rng = np.random.default_rng(23)
    X = rng.normal(size=(60, 4))
    K = kk.kernel_matrix(kk.KernelSpec("radial", gamma=0.5), X)
    start = kk._greedy_seed_assignment(K, 4, np.random.default_rng([2, 0xC1, 0]))
    objectives = np.asarray(lloyd_objectives(K, 4, start))
    assert objectives.size >= 1
    assert np.all(np.diff(objectives) <= 1e-9)


def test_empty_cluster_repair_keeps_k_clusters():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    init = np.array([0, 0, 1, 1])
    assignment, sizes, _, _ = kk._lloyd(kk.kernel_matrix(LINEAR, X), 3, init, kk.MAX_ITER)
    assert np.unique(assignment).size == 3
    assert np.all(sizes >= 1)


def test_assign_fixed_point_and_center_query():
    rng = np.random.default_rng(29)
    X, truth = blobs(rng, n_per=20)
    model = kk.fit(X, k=2, spec=LINEAR, seed=7)
    redone = kk.assign_batch(model, X)
    assert np.array_equal(redone, model.assignment)
    center_label = kk.assign_batch(model, np.full((1, 3), 10.0))[0]
    member = int(np.flatnonzero(truth == 0)[0])
    assert center_label == model.assignment[member]


def test_assign_exact_tie_goes_to_cluster_zero():
    X = np.array([[-1.0, 0.0], [1.0, 0.0]])
    model = kk.fit(X, k=2, spec=LINEAR)
    assert kk.assign_batch(model, np.array([[0.0, 0.0]]))[0] == 0


def test_fit_determinism_and_restarts():
    rng = np.random.default_rng(31)
    X = rng.normal(size=(45, 3))
    a = kk.fit(X, k=3, spec=kk.KernelSpec("radial", gamma=1.0), seed=9)
    b = kk.fit(X, k=3, spec=kk.KernelSpec("radial", gamma=1.0), seed=9)
    assert np.array_equal(a.assignment, b.assignment)
    # fit keeps the lowest-objective run of the seeded restarts, the first on ties
    K = kk.kernel_matrix(LINEAR, X)
    runs = [
        kk._lloyd(K, 3, kk._greedy_seed_assignment(K, 3, np.random.default_rng([9, 0xC1, r])),
                  kk.MAX_ITER)
        for r in range(kk.N_RESTARTS)
    ]
    best = min(runs, key=lambda run: run[3])
    model = kk.fit(X, k=3, spec=LINEAR, seed=9)
    assert np.array_equal(model.assignment, best[0])
    assert model.objective == best[3]
    assert model.objective <= runs[0][3]


def test_fit_validation_errors():
    X = np.zeros((5, 2))
    with pytest.raises(DataError):
        kk.fit(X, k=6, spec=LINEAR)
    with pytest.raises(DataError):
        kk.fit(X, k=0, spec=LINEAR)


@pytest.mark.parametrize("label", ["poly_d400_c1", "poly_d2_c1e200"])
def test_overflowing_kernel_raises_numerical_error(label):
    # finite parameters whose kernel values overflow to inf on these vectors
    X = 3.0 * np.random.default_rng(0).normal(size=(20, 3))
    spec = kk.spec_from_label(label)
    assert not np.all(np.isfinite(kk.kernel_matrix(spec, X)))
    with pytest.raises(NumericalError, match="non-finite"):
        kk.fit(X, k=3, spec=spec, seed=0)


def test_assign_batch_rejects_overflowing_rows():
    X = np.random.default_rng(1).normal(size=(20, 3))
    model = kk.fit(X, k=3, spec=kk.spec_from_label("poly_d40_c1"), seed=0)
    assert kk.assign_batch(model, X).shape == (20,)
    with pytest.raises(NumericalError):
        kk.assign_batch(model, np.full((1, 3), 1e10))
