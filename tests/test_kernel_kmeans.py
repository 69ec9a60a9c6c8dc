import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (expr_kernel_matrix, loop_fit, loop_lloyd, loop_seed_assignment, plain_kmeans,
                     quad_map, traced_peak)

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


def lloyd_objectives(K, k, start):
    """Objective after 1, 2, ... Lloyd steps from start, up to convergence."""
    objectives, previous = [], None
    for steps in range(1, kk.MAX_ITER + 1):
        assignment, _, _, obj = kk._lloyd(K, np.diag(K), k, start, steps, {})
        objectives.append(obj)
        if previous is not None and np.array_equal(assignment, previous):
            break
        previous = assignment
    return objectives


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
        K = kk.kernel_matrix(LINEAR, X)
        assignment, _, _, obj = kk._lloyd(K, np.diag(K), 4, init, kk.MAX_ITER, {})
        oracle_assign, oracle_inertia = plain_kmeans(X, 4, init)
        assert np.array_equal(assignment, oracle_assign)
        assert obj == pytest.approx(oracle_inertia, abs=1e-9)


def test_lloyd_objective_monotone():
    rng = np.random.default_rng(23)
    X = rng.normal(size=(60, 4))
    K = kk.kernel_matrix(kk.KernelSpec("radial", gamma=0.5), X)
    start = kk._greedy_seed_assignment(K, np.diag(K), 4, np.random.default_rng([2, 0xC1, 0]))
    objectives = np.asarray(lloyd_objectives(K, 4, start))
    assert objectives.size >= 1
    assert np.all(np.diff(objectives) <= 1e-9)


@pytest.mark.parametrize("spec", [
    LINEAR, kk.KernelSpec("polynomial", degree=3, coef0=1.0), kk.KernelSpec("radial", gamma=0.5),
], ids=lambda spec: spec.kind)
def test_lloyd_returns_the_sums_of_its_assignment(spec):
    """Converged or cut off by max_iter, _lloyd's sizes, pair sums and objective
    are bit for bit those of a fresh computation on the assignment it returns."""
    k = 4
    rng = np.random.default_rng(37)
    cut_short = 0  # max_iter=1 runs that certainly stopped before converging
    for trial in range(6):
        X = rng.normal(size=(int(rng.integers(12, 50)), 3))
        K = kk.kernel_matrix(spec, X)
        diag = np.diag(K).copy()
        seeded = kk._greedy_seed_assignment(K, diag, k, np.random.default_rng([trial, 0xC1, 0]))
        sparse = rng.integers(0, k - 1, size=X.shape[0])  # cluster k-1 starts empty
        for start in (seeded, sparse):
            converged = kk._lloyd(K, diag, k, start, kk.MAX_ITER, {})
            assert np.array_equal(kk._lloyd(K, diag, k, converged[0], 1, {})[0], converged[0])
            exhausted = kk._lloyd(K, diag, k, start, 1, {})
            cut_short += not np.array_equal(
                kk._lloyd(K, diag, k, exhausted[0], 1, {})[0], exhausted[0])
            for assignment, sizes, pair_sums, obj in (converged, exhausted):
                fresh_sizes, fresh_pair_sums, cross = kk._cluster_sums(
                    K, assignment, k, np.empty((X.shape[0], k)), np.arange(X.shape[0]))
                d = kk._point_cluster_dist2(diag, cross, fresh_sizes, fresh_pair_sums)
                fresh_obj = float(np.maximum(d[np.arange(X.shape[0]), assignment], 0.0).sum())
                assert sizes.tobytes() == fresh_sizes.tobytes()
                assert pair_sums.tobytes() == fresh_pair_sums.tobytes()
                assert repr(obj) == repr(fresh_obj)
    assert cut_short > 0


def test_assign_batch_never_picks_an_empty_cluster():
    # _lloyd reads only the distances of occupied clusters, so the +inf mask
    # on empty ones is what keeps assign_batch off a cluster a model left empty
    X = np.array([[0.0], [1.0], [5.0], [6.0]])
    model = kk.ClusterModel(
        spec=LINEAR, k=3, vectors=X, assignment=np.array([0, 0, 2, 2]),
        sizes=np.array([2.0, 0.0, 2.0]), pair_sums=np.array([1.0, 0.0, 121.0]), objective=1.0,
    )
    d = kk._centroid_dist2(model, X)
    assert np.isposinf(d[:, 1]).all() and np.isfinite(d[:, [0, 2]]).all()
    assert kk.assign_batch(model, X).tolist() == [0, 0, 2, 2]


def test_empty_cluster_repair_keeps_k_clusters():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    init = np.array([0, 0, 1, 1])
    K = kk.kernel_matrix(LINEAR, X)
    assignment, sizes, _, _ = kk._lloyd(K, np.diag(K), 3, init, kk.MAX_ITER, {})
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
    model = kk.fit(X, k=2, spec=LINEAR, seed=0)
    assert kk.assign_batch(model, np.array([[0.0, 0.0]]))[0] == 0


def test_fit_determinism_and_restarts():
    rng = np.random.default_rng(31)
    X = rng.normal(size=(45, 3))
    a = kk.fit(X, k=3, spec=kk.KernelSpec("radial", gamma=1.0), seed=9)
    b = kk.fit(X, k=3, spec=kk.KernelSpec("radial", gamma=1.0), seed=9)
    assert np.array_equal(a.assignment, b.assignment)
    # fit keeps the lowest-objective run of the seeded restarts, the first on ties
    K = kk.kernel_matrix(LINEAR, X)
    diag = np.diag(K)
    runs = [
        kk._lloyd(K, diag, 3,
                  kk._greedy_seed_assignment(K, diag, 3, np.random.default_rng([9, 0xC1, r])),
                  kk.MAX_ITER, {})
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
        kk.fit(X, k=6, spec=LINEAR, seed=0)
    with pytest.raises(DataError):
        kk.fit(X, k=0, spec=LINEAR, seed=0)


@pytest.mark.parametrize("label", ["poly_d400_c1", "poly_d2_c1e200"])
def test_overflowing_kernel_raises_numerical_error(label):
    # finite parameters whose kernel values overflow to inf on these vectors
    X = 3.0 * np.random.default_rng(0).normal(size=(20, 3))
    spec = kk.spec_from_label(label)
    assert not np.all(np.isfinite(kk.kernel_matrix(spec, X)))
    with pytest.raises(NumericalError, match="non-finite"):
        kk.fit(X, k=3, spec=spec, seed=0)


@pytest.mark.parametrize("label", ["rbf_g0.1", "linear"])
def test_overflowing_squared_norms_raise_numerical_error(label):
    # at |x| near 1e200 a squared norm overflows: a radial kernel meets
    # inf - inf = NaN, a linear one reaches +inf and -inf
    spec = kk.spec_from_label(label)
    X = np.random.default_rng(5).normal(size=(20, 3))
    huge = np.array([[1e200, 1e200, 1e200], [-1e200, -1e200, -1e200]])
    K = kk.kernel_matrix(spec, np.vstack([X, huge]))
    if spec.kind == "radial":
        assert np.isnan(K).any()
    else:
        assert np.isposinf(K).any() and np.isneginf(K).any()
    with pytest.raises(NumericalError, match="non-finite"):
        kk.fit(np.vstack([X, huge]), k=3, spec=spec, seed=0)
    # a training row at 1e150 keeps the fit finite; against it the huge rows overflow
    model = kk.fit(np.vstack([X, np.full((1, 3), 1e150)]), k=3, spec=spec, seed=0)
    with pytest.raises(NumericalError, match="non-finite"):
        kk.assign_batch(model, huge)


@pytest.mark.parametrize("label", ["linear", "poly_d3_c1", "rbf_g0.1"])
def test_a_kernel_evaluation_holds_one_matrix(label):
    # fit holds the n x n kernel and little more: a radial kernel's outer
    # sum of squared norms is taken a block of rows at a time, and the
    # finiteness check allocates no mask
    rng = np.random.default_rng(0)
    n, m = 400, 100
    X, queries = rng.normal(size=(n, 30)), rng.normal(size=(m, 30))
    spec = kk.spec_from_label(label)
    assert traced_peak(kk.fit, X, 4, spec, 0) <= 1.3 * n * n * 8
    model = kk.fit(X, 4, spec, 0)
    assert traced_peak(kk.assign_batch, model, queries) <= 2.0 * m * n * 8


def test_assign_batch_rejects_overflowing_rows():
    X = np.random.default_rng(1).normal(size=(20, 3))
    model = kk.fit(X, k=3, spec=kk.spec_from_label("poly_d40_c1"), seed=0)
    assert kk.assign_batch(model, X).shape == (20,)
    with pytest.raises(NumericalError):
        kk.assign_batch(model, np.full((1, 3), 1e10))


KERNEL_LABELS = ["linear", "poly_d2_c0", "poly_d3_c1", "rbf_g0.1", "rbf_g1", "rbf_g10"]


def model_bytes(model):
    return (model.assignment.tobytes(), model.sizes.tobytes(), model.pair_sums.tobytes(),
            repr(model.objective))


@st.composite
def fit_cases(draw):
    """Small problems, half of them on an integer lattice with repeated rows,
    so that restarts often meet an assignment an earlier restart passed."""
    n = draw(st.integers(1, 40))
    p = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        X = rng.integers(-2, 3, size=(n, p)).astype(np.float64)
    else:
        X = rng.normal(size=(n, p))
    k = draw(st.integers(1, min(n, 6)))
    return X, k, kk.spec_from_label(draw(st.sampled_from(KERNEL_LABELS))), draw(st.integers(0, 99))


@settings(max_examples=200, deadline=None)
@given(fit_cases())
@example((np.arange(12.0)[:, None], 3, LINEAR, 0))  # n <= 12: restarts repeat their starts
@example((np.repeat(np.eye(3), 3, axis=0), 3, kk.spec_from_label("rbf_g1"), 1))  # duplicated rows
@example((np.zeros((5, 2)), 2, LINEAR, 0))  # every point the same: repairs at every start
def test_fit_matches_the_restart_loop(case):
    # skipping a restart that retraces an earlier one returns the same model
    # as running every restart to the end
    X, k, spec, seed = case
    assert model_bytes(kk.fit(X, k, spec, seed)) == model_bytes(loop_fit(X, k, spec, seed))


@st.composite
def assign_cases(draw):
    """Small problems over a kernel of each kind; on some draws the rows are
    rounded to one decimal, so that rows repeat and distances tie."""
    n = draw(st.integers(1, 30))
    p = draw(st.integers(1, 4))
    X = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(n, p))
    if draw(st.booleans()):
        X = np.round(X, 1)
    k = draw(st.integers(1, min(n, 6)))
    return X, k, kk.spec_from_label(draw(st.sampled_from(KERNEL_LABELS))), draw(st.integers(0, 99))


@settings(max_examples=150, deadline=None)
@given(assign_cases())
def test_assign_batch_gives_the_fit_assignment_on_the_training_rows(case):
    # assign_batch takes each diagonal from kernel_diag's closed form and fit
    # from its kernel matrix, which may differ in the last bits. The rows go
    # in as a copy, as the pipeline's out-of-sample rows do: the same array
    # object would take the symmetric A @ A.T product that fit's matrix takes
    X, k, spec, seed = case
    model = kk.fit(X, k, spec, seed)
    assert np.array_equal(kk.assign_batch(model, X.copy()), model.assignment)


@st.composite
def lloyd_cases(draw):
    """A fit case's kernel with a start that is greedy-seeded, uniform, or
    leaves cluster k-1 empty, so that the repair and the masked distances run;
    max_iter 1 often ends on an unconverged, unrepaired assignment."""
    X, k, spec, seed = draw(fit_cases())
    K = kk.kernel_matrix(spec, X)
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["seeded", "uniform", "empty"]))
    if kind == "seeded":
        start = loop_seed_assignment(K, k, rng)
    else:
        start = rng.integers(0, k if kind == "uniform" else max(k - 1, 1), size=X.shape[0])
    return K, k, start, draw(st.sampled_from([1, kk.MAX_ITER]))


def lone_lloyd(K, k, start, max_iter):
    """_lloyd with an empty `seen`, as a fit's first restart runs it."""
    return kk._lloyd(K, np.diag(K).copy(), k, start, max_iter, {})


def lloyd_bytes(lloyd, K, k, start, max_iter):
    try:
        assignment, sizes, pair_sums, obj = lloyd(K, k, start, max_iter)
    except DataError as err:
        return str(err)
    return assignment.tobytes(), sizes.tobytes(), pair_sums.tobytes(), repr(obj)


SIX_POINTS = kk.kernel_matrix(LINEAR, np.arange(6.0)[:, None])


@settings(max_examples=200, deadline=None)
@given(lloyd_cases())
@example((SIX_POINTS, 3, np.array([0, 0, 0, 1, 1, 1]), 1))  # cluster 2 starts empty
@example((SIX_POINTS, 3, np.array([0, 0, 0, 1, 1, 1]), kk.MAX_ITER))
# every point the same (K = 0): every step repairs, and max_iter ends on an empty cluster
@example((np.zeros((5, 5)), 2, np.zeros(5, dtype=np.int64), kk.MAX_ITER))
def test_lloyd_matches_the_step_loop(case):
    # the refilled indicator buffer, bincount sizes and in-place distances
    # give the bytes of a fresh indicator matrix and the masked expression
    K, k, start, max_iter = case
    assert lloyd_bytes(lone_lloyd, K, k, start, max_iter) == lloyd_bytes(loop_lloyd, K, k, start, max_iter)


def test_fit_skips_repeated_restarts_on_small_problems():
    # on a tiny problem the seeded restarts share start assignments, so the
    # skip path runs; the model is still the loop's
    X = np.random.default_rng(3).normal(size=(10, 2))
    calls = []
    lloyd = kk._lloyd

    def counted(*args):
        calls.append(lloyd(*args))
        return calls[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kk, "_lloyd", counted)
        model = kk.fit(X, 3, LINEAR, seed=0)
    assert len(calls) == kk.N_RESTARTS
    assert calls[0] is not None and sum(run is None for run in calls) > 0
    assert model_bytes(model) == model_bytes(loop_fit(X, 3, LINEAR, seed=0))


def test_lloyd_carries_on_when_a_seen_run_needs_more_steps_than_left():
    # a run that reaches a recorded assignment without the steps to converge
    # from it must run on and return what it returns with an empty `seen`
    rng = np.random.default_rng(41)
    X = rng.normal(size=(40, 3))
    K = kk.kernel_matrix(LINEAR, X)
    start = rng.integers(0, 4, size=40)
    seen = {}
    diag = np.diag(K)
    converged = kk._lloyd(K, diag, 4, start, kk.MAX_ITER, seen)
    steps = seen[start.astype(np.uint8).tobytes()]  # further steps from start
    assert steps >= 2 and len(seen) == steps + 1
    recorded = dict(seen)
    for max_iter in (1, steps - 1, steps):
        cut = kk._lloyd(K, diag, 4, start, max_iter, seen)
        plain = kk._lloyd(K, diag, 4, start, max_iter, {})
        assert cut is not None
        assert [a.tobytes() for a in cut[:3]] == [a.tobytes() for a in plain[:3]]
        assert repr(cut[3]) == repr(plain[3])
        assert seen == recorded  # a run cut off by max_iter records nothing
    assert kk._lloyd(K, diag, 4, start, steps + 1, seen) is None
    assert kk._lloyd(K, diag, 4, start, steps + 1, {})[0].tobytes() == converged[0].tobytes()


@st.composite
def kernel_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.integers(1, 5))
    scale = draw(st.sampled_from([0.1, 1.0, 3.0]))
    A = scale * rng.normal(size=(draw(st.integers(1, 30)), p))
    B = None if draw(st.booleans()) else scale * rng.normal(size=(draw(st.integers(1, 30)), p))
    labels = KERNEL_LABELS + ["poly_d1_c-2.5", "poly_d400_c1", "poly_d2_c1e200", "rbf_g1e-05"]
    # radial blocks of one row, of several rows, and of every row
    budget = draw(st.sampled_from([1, 7, 64, kk.RADIAL_BLOCK_ELEMENTS]))
    return kk.spec_from_label(draw(st.sampled_from(labels))), A, B, budget


OVERFLOW_ROWS = 3.0 * np.random.default_rng(0).normal(size=(20, 3))


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
@example((kk.spec_from_label("poly_d400_c1"), OVERFLOW_ROWS, None, kk.RADIAL_BLOCK_ELEMENTS))
@example((kk.spec_from_label("poly_d400_c1"), OVERFLOW_ROWS, OVERFLOW_ROWS[:4],
          kk.RADIAL_BLOCK_ELEMENTS))
@example((kk.spec_from_label("rbf_g1"), OVERFLOW_ROWS, OVERFLOW_ROWS,
          kk.RADIAL_BLOCK_ELEMENTS))  # B equal to A, not A
@example((kk.spec_from_label("rbf_g1"), OVERFLOW_ROWS, OVERFLOW_ROWS, 7))  # the same, one-row blocks
@example((kk.spec_from_label("rbf_g1"), OVERFLOW_ROWS, None, 64))  # blocks of 3 rows, then 2
def test_kernel_matrix_matches_the_expressions(case):
    # the poly_d400_c1 examples overflow to inf on these rows, as
    # test_overflowing_kernel_raises_numerical_error checks
    spec, A, B, budget = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kk, "RADIAL_BLOCK_ELEMENTS", budget)
        fast = kk.kernel_matrix(spec, A, B)
    slow = expr_kernel_matrix(spec, A, B)
    assert fast.shape == slow.shape and fast.tobytes() == slow.tobytes()
