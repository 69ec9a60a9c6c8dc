import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import exact_shapley_oracle
from shapgate import attribution, gbm
from shapgate.errors import DataError


def manual_stump(feature=0, threshold=0.0, left=-1.5, right=2.5,
                 base_margin=0.3, learning_rate=0.7, n_features=3):
    tree = gbm.DecisionTree(
        feature=np.array([feature, -1, -1], dtype=np.int32),
        threshold=np.array([threshold, 0.0, 0.0]),
        left=np.array([1, -1, -1], dtype=np.int32),
        right=np.array([2, -1, -1], dtype=np.int32),
        value=np.array([0.0, left, right]),
        n_samples=np.array([4, 2, 2], dtype=np.int32),
    )
    return gbm.TreeEnsemble(
        base_margin=base_margin, trees=[tree],
        learning_rate=learning_rate, n_features=n_features,
    )


def shap_row(ens, x, bg):
    """Attributions of one feature vector, as a one-row ShapMatrix."""
    return attribution.shap_matrix(ens, np.asarray(x, dtype=np.float64)[None, :], bg)


def margin_of(ens, x):
    return gbm.predict_margin_batch(ens, np.asarray(x, dtype=np.float64)[None, :])[0]


def random_fit(rng, n=40, p=5, n_trees=3, max_depth=3):
    X = rng.normal(size=(n, p))
    y = (X[:, 0] + 0.5 * rng.normal(size=n) > 0).astype(int)
    if y.min() == y.max():
        y[: n // 2] = 1 - y[0]
    ens = gbm.fit(X, y, gbm.GbmConfig(n_trees=n_trees, max_depth=max_depth))
    return ens, X


def test_zero_tree_ensemble_gives_zero_attributions():
    ens = gbm.TreeEnsemble(base_margin=0.4, trees=[], learning_rate=0.1, n_features=3)
    bg = attribution.Background(rows=np.zeros((4, 3)))
    sv = shap_row(ens, np.array([1.0, 2.0, 3.0]), bg)
    assert np.array_equal(sv.values[0], np.zeros(3))
    assert sv.base_value == 0.4


def test_stump_same_side_gives_zero():
    ens = manual_stump()
    bg = attribution.Background(rows=np.array([[-1.0, 0, 0], [-2.0, 5, 5]]))
    sv = shap_row(ens, np.array([-0.5, 9.0, 9.0]), bg)  # also left
    assert np.array_equal(sv.values[0], np.zeros(3))


def test_stump_opposite_sides_hand_value():
    # x goes left, background goes right: phi_f = margin(x) - base_value
    ens = manual_stump()
    bg = attribution.Background(rows=np.array([[1.0, 0, 0], [2.0, 5, 5]]))
    x = np.array([-1.0, 9.0, 9.0])
    sv = shap_row(ens, x, bg)
    phi = sv.values[0]
    assert sv.base_value == pytest.approx(0.3 + 0.7 * 2.5, abs=1e-12)
    assert phi[0] == pytest.approx(margin_of(ens, x) - sv.base_value, abs=1e-12)
    assert phi[1] == 0.0 and phi[2] == 0.0


def test_symmetric_features_get_equal_attributions():
    stump_a = manual_stump(feature=0, n_features=2)
    stump_b = manual_stump(feature=1, n_features=2)
    ens = gbm.TreeEnsemble(
        base_margin=0.3, trees=[stump_a.trees[0], stump_b.trees[0]],
        learning_rate=0.7, n_features=2,
    )
    bg = attribution.Background(rows=np.array([[-1.0, -1.0], [2.0, 2.0]]))
    phi = shap_row(ens, np.array([0.5, 0.5]), bg).values[0]
    assert phi[0] == phi[1]


def test_dummy_feature_has_exactly_zero_attribution():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(50, 4))
    X[:, 2] = 1.0  # constant column is never split on
    y = (X[:, 0] > 0).astype(int)
    ens = gbm.fit(X, y, gbm.GbmConfig(n_trees=10))
    bg = attribution.Background(rows=X[:20])
    sm = attribution.shap_matrix(ens, X, bg)
    assert np.all(sm.values[:, 2] == 0.0)


def test_local_accuracy_random_ensembles():
    rng = np.random.default_rng(9)
    for _ in range(20):
        ens, X = random_fit(rng, n=30 + int(rng.integers(40)), p=int(rng.integers(2, 7)))
        bg = attribution.Background(rows=X[:15])
        sm = attribution.shap_matrix(ens, X[:10], bg)
        margins = gbm.predict_margin_batch(ens, X[:10])
        recon = sm.base_value + sm.values.sum(axis=1)
        assert np.max(np.abs(recon - margins)) < 1e-9


def test_oracle_matches_hand_stump():
    ens = manual_stump()
    bg = attribution.Background(rows=np.array([[1.0, 0, 0], [2.0, 5, 5]]))
    x = np.array([-1.0, 9.0, 9.0])
    sv = exact_shapley_oracle(ens, x, bg)
    phi = sv.values[0]
    assert phi[0] == pytest.approx(margin_of(ens, x) - sv.base_value, abs=1e-12)
    assert abs(phi[1]) < 1e-15 and abs(phi[2]) < 1e-15


def test_oracle_equivalence_100_trials():
    # fast path against enumeration over all 2^p coalitions; depths 4-6 give
    # leaf paths with more than 3 distinct features
    rng = np.random.default_rng(17)
    worst = 0.0
    widest_path = 0
    for trial in range(100):
        p = 2 + trial % 9
        depth = 1 + trial % 6
        n_trees = 1 + trial % 5
        ens, X = random_fit(rng, n=40, p=p, n_trees=n_trees, max_depth=depth)
        bg = attribution.Background(rows=X[: 5 + trial % 16])
        x = X[int(rng.integers(X.shape[0]))]
        fast = shap_row(ens, x, bg)
        slow = exact_shapley_oracle(ens, x, bg)
        assert fast.base_value == pytest.approx(slow.base_value, abs=1e-9)
        worst = max(worst, float(np.max(np.abs(fast.values - slow.values))))
        for tree in ens.trees:
            for _, feats, _, _ in attribution._leaf_boxes(tree):
                widest_path = max(widest_path, feats.size)
    assert worst < 1e-9
    assert widest_path >= 5


def test_additivity_across_trees():
    rng = np.random.default_rng(21)
    ens, X = random_fit(rng, n=60, p=5, n_trees=5)
    bg = attribution.Background(rows=X[:20])
    x = X[3]
    total = shap_row(ens, x, bg).values
    parts = np.zeros_like(total)
    for tree in ens.trees:
        single = gbm.TreeEnsemble(
            base_margin=ens.base_margin, trees=[tree],
            learning_rate=ens.learning_rate, n_features=ens.n_features,
        )
        parts += shap_row(single, x, bg).values
    assert np.max(np.abs(total - parts)) < 1e-9


def test_matrix_matches_rowwise_calls_exactly():
    rng = np.random.default_rng(25)
    ens, X = random_fit(rng, n=50, p=6, n_trees=8)
    bg = attribution.Background(rows=X[:20])
    sm = attribution.shap_matrix(ens, X[:30], bg)
    for i in range(30):
        sv = shap_row(ens, X[i], bg)
        assert np.array_equal(sm.values[i], sv.values[0])
        assert sv.base_value == sm.base_value


@st.composite
def partitioned_rows(draw):
    """A random ensemble, its rows, and a partition of a row set into parts."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(2, 40))
    p = draw(st.integers(1, 6))
    rng = np.random.default_rng(seed)
    # rounded values: many rows share a leaf-path mask, as in one-hot data
    X = np.round(rng.normal(size=(n, p)), draw(st.integers(0, 2)))
    y = (X[:, 0] + rng.normal(size=n) > 0).astype(int)
    y[0], y[-1] = 0, 1
    config = gbm.GbmConfig(n_trees=draw(st.integers(1, 6)), max_depth=draw(st.integers(1, 4)))
    ens = gbm.fit(X, y, config)
    bg = attribution.Background(rows=X[rng.choice(n, size=draw(st.integers(1, n)), replace=False)])
    rows = rng.permutation(n)[: draw(st.integers(1, n))]
    part = np.asarray(draw(st.lists(st.integers(0, 3), min_size=rows.size, max_size=rows.size)))
    return ens, X, bg, rows, part


@settings(max_examples=150, deadline=None)
@given(partitioned_rows())
def test_matrix_equals_concatenation_over_any_row_partition(case):
    # pipeline.fit_core runs one pass over train and test rows and slices it,
    # which relies on each row's attributions depending on that row alone
    ens, X, bg, rows, part = case
    whole = attribution.shap_matrix(ens, X, bg, rows=rows)
    pieces = np.empty_like(whole.values)
    for label in np.unique(part):
        sm = attribution.shap_matrix(ens, X, bg, rows=rows[part == label])
        pieces[part == label] = sm.values
        assert sm.base_value == whole.base_value
    assert pieces.tobytes() == whole.values.tobytes()


def test_identical_rows_identical_vectors():
    rng = np.random.default_rng(29)
    ens, X = random_fit(rng)
    bg = attribution.Background(rows=X[:10])
    doubled = np.vstack([X[7], X[7]])
    sm = attribution.shap_matrix(ens, doubled, bg)
    assert np.array_equal(sm.values[0], sm.values[1])


def test_background_validation():
    with pytest.raises(DataError):
        attribution.Background(rows=np.empty((0, 3)))
    ens = manual_stump()
    bg = attribution.Background(rows=np.zeros((2, 4)))  # wrong width
    with pytest.raises(DataError):
        attribution.shap_matrix(ens, np.zeros((1, 3)), bg)


def test_make_background_cap_and_determinism():
    rng = np.random.default_rng(33)
    values = rng.normal(size=(1300, 3))
    idx = np.arange(1200)
    bg_a = attribution.make_background(values, idx, seed=4)
    bg_b = attribution.make_background(values, idx, seed=4)
    assert bg_a.rows.shape == (attribution.BACKGROUND_CAP, 3)
    assert np.array_equal(bg_a.rows, bg_b.rows)
    rows_as_set = {tuple(r) for r in values[idx].tolist()}
    assert all(tuple(r) in rows_as_set for r in bg_a.rows.tolist())
    bg_full = attribution.make_background(values, idx[:50], seed=4)
    assert np.array_equal(bg_full.rows, values[:50])
    with pytest.raises(DataError):
        attribution.make_background(values, np.array([], dtype=int))


def test_oracle_feature_count_guard():
    ens = gbm.TreeEnsemble(base_margin=0.0, trees=[], learning_rate=0.1, n_features=16)
    bg = attribution.Background(rows=np.zeros((2, 16)))
    with pytest.raises(DataError):
        exact_shapley_oracle(ens, np.zeros(16), bg)


def test_csv_export_roundtrip():
    rng = np.random.default_rng(41)
    ens, X = random_fit(rng, n=30, p=4)
    bg = attribution.Background(rows=X[:10])
    sm = attribution.shap_matrix(ens, X[:5], bg)
    sm.feature_names = ["a", "b", "c", "d"]
    text = attribution.shap_matrix_to_csv(sm)
    lines = text.strip().split("\n")
    assert lines[0] == "a,b,c,d,base_value"
    assert len(lines) == 6
    parsed = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.array_equal(parsed[:, :4], sm.values)
    assert np.all(parsed[:, 4] == sm.base_value)
