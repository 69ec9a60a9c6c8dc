import numpy as np
import pytest

from shapgate import gbm
from shapgate.errors import DataError


def stump_data():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 1, 1])
    return X, y


def test_stump_split_and_newton_value():
    # p_bar = 0.5 so base margin 0 and all residuals are +-0.5 with hessian 0.25.
    # Best cut is the midpoint 1.5; leaf value = sum(r)/sum(h) = -1.0/0.5 = -2.
    X, y = stump_data()
    ens = gbm.fit(X, y, gbm.GbmConfig(n_trees=1, learning_rate=1.0, max_depth=1))
    assert ens.base_margin == 0.0
    tree = ens.trees[0]
    assert tree.feature[0] == 0
    assert tree.threshold[0] == 1.5
    leaf_values = sorted(tree.value[tree.feature < 0])
    assert leaf_values == [-2.0, 2.0]


def test_second_stage_newton_value_closed_form():
    # After the first +-2 stump, p = sigmoid(+-2) on each side, so the second
    # stage leaf is -(1 + e^-2) on the left and +(1 + e^-2) on the right.
    X, y = stump_data()
    ens = gbm.fit(X, y, gbm.GbmConfig(n_trees=2, learning_rate=1.0, max_depth=1))
    expected = -2.0 - (1.0 + np.exp(-2.0))
    margins = gbm.predict_margin_batch(ens, np.array([[0.0], [3.0]]))
    assert margins[0] == pytest.approx(expected, abs=1e-12)
    assert margins[1] == pytest.approx(-expected, abs=1e-12)


def test_threshold_equality_routes_left():
    X, y = stump_data()
    ens = gbm.fit(X, y, gbm.GbmConfig(n_trees=1, learning_rate=1.0, max_depth=1))
    margins = gbm.predict_margin_batch(ens, np.array([[1.5], [1.5000001]]))
    assert margins[0] == -2.0
    assert margins[1] == 2.0


def test_feature_tie_prefers_lowest_index():
    X, y = stump_data()
    X2 = np.hstack([X, X])  # identical copy in column 1
    ens = gbm.fit(X2, y, gbm.GbmConfig(n_trees=1, learning_rate=1.0, max_depth=1))
    assert ens.trees[0].feature[0] == 0


def test_zero_trees_predicts_base_rate():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 3))
    y = np.array([0] * 10 + [1] * 30)
    ens = gbm.fit(X, y, gbm.GbmConfig(n_trees=0))
    assert ens.n_trees == 0
    margin = gbm.predict_margin_batch(ens, X[:1])[0]
    assert 1.0 / (1.0 + np.exp(-margin)) == pytest.approx(0.75, abs=1e-12)
    assert ens.base_margin == pytest.approx(np.log(3.0), abs=1e-12)


def test_separable_data_reaches_perfect_training_accuracy():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(80, 4))
    y = (X[:, 2] > 0.0).astype(int)
    ens = gbm.fit(X, y, gbm.GbmConfig())
    preds = (gbm.predict_margin_batch(ens, X) > 0.0).astype(int)
    assert np.array_equal(preds, y)


def test_stage_losses_non_increasing():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(120, 5))
    logits = 1.5 * X[:, 0] - X[:, 3] + 0.3 * rng.normal(size=120)
    y = (logits > 0).astype(int)
    ens = gbm.fit(X, y, gbm.GbmConfig(n_trees=30))
    # mean log loss after each stage, rebuilt from the fitted trees
    margins = np.full(y.size, ens.base_margin)
    losses = [np.mean(np.logaddexp(0.0, margins) - y * margins)]
    for tree in ens.trees:
        margins = margins + ens.learning_rate * tree.predict(X)
        losses.append(np.mean(np.logaddexp(0.0, margins) - y * margins))
    losses = np.asarray(losses)
    assert losses.size == 31
    p_bar = y.mean()
    first = -(p_bar * np.log(p_bar) + (1 - p_bar) * np.log(1 - p_bar))
    assert losses[0] == pytest.approx(first, abs=1e-12)
    assert np.all(np.diff(losses) <= 1e-9)


def test_margin_matches_manual_path_walk():
    # independent traversal: walk nodes with a while loop and sum leaf values
    rng = np.random.default_rng(19)
    X = rng.normal(size=(100, 6))
    y = (X[:, 1] + 0.5 * X[:, 4] > 0).astype(int)
    ens = gbm.fit(X, y, gbm.GbmConfig(n_trees=12))
    margins = gbm.predict_margin_batch(ens, X[:20])
    for row in range(20):
        x = X[row]
        total = ens.base_margin
        for tree in ens.trees:
            node = 0
            while tree.feature[node] >= 0:
                if x[tree.feature[node]] <= tree.threshold[node]:
                    node = tree.left[node]
                else:
                    node = tree.right[node]
            total += ens.learning_rate * tree.value[node]
        assert margins[row] == pytest.approx(total, abs=1e-12)


def test_parent_child_sample_counts():
    rng = np.random.default_rng(23)
    X = rng.normal(size=(90, 4))
    y = (X[:, 0] > 0.2).astype(int)
    ens = gbm.fit(X, y, gbm.GbmConfig(n_trees=8))
    for tree in ens.trees:
        for node in range(tree.feature.size):
            if tree.feature[node] < 0:
                continue
            lo, hi = tree.left[node], tree.right[node]
            assert tree.n_samples[node] == tree.n_samples[lo] + tree.n_samples[hi]


def test_min_samples_leaf_honored():
    rng = np.random.default_rng(29)
    X = rng.normal(size=(64, 3))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    ens = gbm.fit(X, y, gbm.GbmConfig(n_trees=10, min_samples_leaf=8))
    for tree in ens.trees:
        leaf_counts = tree.n_samples[tree.feature < 0]
        assert leaf_counts.min() >= 8


def test_fit_invariant_to_row_order():
    rng = np.random.default_rng(31)
    X = rng.normal(size=(70, 5))
    y = (X[:, 2] - X[:, 4] > 0).astype(int)
    probe = rng.normal(size=(25, 5))
    ens_a = gbm.fit(X, y, gbm.GbmConfig(n_trees=15))
    perm = rng.permutation(70)
    ens_b = gbm.fit(X[perm], y[perm], gbm.GbmConfig(n_trees=15))
    assert np.array_equal(
        gbm.predict_margin_batch(ens_a, probe), gbm.predict_margin_batch(ens_b, probe)
    )


def test_shape_errors():
    X, y = stump_data()
    ens = gbm.fit(X, y, gbm.GbmConfig(n_trees=1))
    with pytest.raises(DataError):
        gbm.predict_margin_batch(ens, np.zeros(3))
    with pytest.raises(DataError):
        gbm.predict_margin_batch(ens, np.zeros((4, 2)))
    with pytest.raises(DataError):
        gbm.fit(X, np.zeros(9), gbm.GbmConfig())
    with pytest.raises(DataError):
        gbm.fit(X, np.zeros(4), gbm.GbmConfig())  # single class
    with pytest.raises(DataError):
        gbm.GbmConfig(learning_rate=0.0)
