import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import loop_best_split, loop_predict_margin, traced_peak
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
    losses = []
    for stage in range(ens.n_trees + 1):
        margins = loop_predict_margin(dataclasses.replace(ens, trees=ens.trees[:stage]), X)
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


def node_counts(tree, X):
    """Rows of X reaching each node, routing every row from the root."""
    counts = np.zeros(tree.feature.size, dtype=np.int64)
    for x in X:
        node = 0
        counts[node] += 1
        while tree.feature[node] >= 0:
            if x[tree.feature[node]] <= tree.threshold[node]:
                node = tree.left[node]
            else:
                node = tree.right[node]
            counts[node] += 1
    return counts


def test_parent_child_sample_counts():
    rng = np.random.default_rng(23)
    X = rng.normal(size=(90, 4))
    y = (X[:, 0] > 0.2).astype(int)
    ens = gbm.fit(X, y, gbm.GbmConfig(n_trees=8))
    for tree in ens.trees:
        counts = node_counts(tree, X)
        split = tree.feature >= 0
        assert np.array_equal(counts[split], counts[tree.left[split]] + counts[tree.right[split]])
        assert counts.min() >= 1  # the default min_samples_leaf


def test_min_samples_leaf_honored():
    rng = np.random.default_rng(29)
    X = rng.normal(size=(64, 3))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    ens = gbm.fit(X, y, gbm.GbmConfig(n_trees=10, min_samples_leaf=8))
    for tree in ens.trees:
        leaf_counts = node_counts(tree, X)[tree.feature < 0]
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
    with pytest.raises(DataError, match="no training rows"):
        gbm.fit(np.zeros((0, 1)), np.zeros(0), gbm.GbmConfig())
    for bad in (np.nan, np.inf, -np.inf):
        X_bad = X.astype(np.float64)
        X_bad[3, 0] = bad
        with pytest.raises(DataError, match="finite"):
            gbm.fit(X_bad, y, gbm.GbmConfig(n_trees=1))
    for bad in (2.0, -1.0, 0.5, np.nan):
        y_bad = y.astype(np.float64)
        y_bad[2] = bad
        with pytest.raises(DataError, match="0 or 1"):
            gbm.fit(X, y_bad, gbm.GbmConfig(n_trees=1))
    for labels in (y.astype(np.int32), y.astype(bool)):  # 0/1 in any dtype stays valid
        assert ensemble_bytes(gbm.fit(X, labels, gbm.GbmConfig(n_trees=1))) == ensemble_bytes(ens)


def ensemble_bytes(ens):
    """Every tree array with its dtype, and the base margin, for exact comparison."""
    out = [repr(ens.base_margin)]
    for tree in ens.trees:
        for field in dataclasses.fields(tree):
            arr = getattr(tree, field.name)
            out.append((field.name, arr.dtype.str, arr.tobytes()))
    return out


@st.composite
def tie_heavy_fits(draw):
    """Small integer-valued X (many ties), both classes, random depth and leaf size."""
    n = draw(st.integers(2, 30))
    p = draw(st.integers(1, 5))
    levels = draw(st.integers(1, 4))
    X = np.asarray(draw(st.lists(st.integers(0, levels), min_size=n * p, max_size=n * p)),
                   dtype=np.float64).reshape(n, p)
    y = np.asarray(draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n)))
    if y.min() == y.max():
        y[0] = 1 - y[0]
    config = gbm.GbmConfig(
        n_trees=draw(st.integers(1, 4)),
        learning_rate=draw(st.sampled_from([0.1, 0.5, 1.0])),
        max_depth=draw(st.integers(1, 4)),
        min_samples_leaf=draw(st.integers(1, n)),
    )
    return X, y, config


@settings(max_examples=300, deadline=None)
@given(tie_heavy_fits())
@example((np.array([[0.0], [1.0]]), np.array([0, 1]), gbm.GbmConfig(n_trees=2)))  # n = 2
@example((np.array([[3.0, 0.0], [3.0, 1.0], [3.0, 2.0], [3.0, 3.0]]), np.array([0, 0, 1, 1]),
          gbm.GbmConfig(n_trees=2)))  # constant feature first
@example((np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]), np.array([0, 1, 0, 1]),
          gbm.GbmConfig(n_trees=3)))  # duplicate columns: every gain ties across features
@example((np.arange(9.0)[:, None], np.array([0, 0, 0, 1, 1, 1, 0, 1, 1]),
          gbm.GbmConfig(n_trees=2, min_samples_leaf=5)))  # min_samples_leaf > n / 2
@example((np.arange(8.0)[:, None], np.array([0, 1, 0, 1, 1, 0, 1, 1]),
          gbm.GbmConfig(n_trees=2, min_samples_leaf=4)))  # min_samples_leaf = n / 2: one cut
def test_split_search_matches_the_loop(case):
    X, y, config = case
    fast = gbm.fit(X, y, config)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gbm._TreeBuilder, "_best_split", loop_best_split)
        slow = gbm.fit(X, y, config)
    assert ensemble_bytes(fast) == ensemble_bytes(slow)


@st.composite
def permuted_fits_with_duplicates(draw):
    """A tie-heavy fit, its rows with some duplicated, and a permutation of them."""
    X, y, config = draw(tie_heavy_fits())
    extra = draw(st.lists(st.integers(0, y.size - 1), max_size=10))
    rows = np.concatenate([np.arange(y.size), np.asarray(extra, dtype=np.intp)])
    perm = np.asarray(draw(st.permutations(range(rows.size))), dtype=np.intp)
    return X[rows], y[rows], config, perm


@settings(max_examples=200, deadline=None)
@given(permuted_fits_with_duplicates())
def test_fit_bit_identical_under_row_permutation(case):
    # the canonical row order makes every tie resolve the same way, so the
    # trees match bit for bit even where split gains tie
    X, y, config, perm = case
    assert ensemble_bytes(gbm.fit(X, y, config)) == ensemble_bytes(gbm.fit(X[perm], y[perm], config))


# split thresholds, which the rows below also draw from, so that some rows sit
# exactly on a threshold
THRESHOLDS = (-1.0, -0.5, 0.0, 0.5, 1.0)


@st.composite
def random_trees(draw, n_features):
    """A DecisionTree of depth 0 (a lone root leaf) to 7, nodes in the
    builder's order: a node, then its left subtree, then its right one."""
    depth = draw(st.integers(0, 7))
    nodes = []  # [feature, threshold, left, right, value]

    def grow(level, on_deepest_path):
        node = len(nodes)
        nodes.append([-1, 0.0, -1, -1, 0.0])
        # the leftmost path always reaches the drawn depth
        if level < depth and (on_deepest_path or draw(st.booleans())):
            nodes[node][:2] = draw(st.integers(0, n_features - 1)), draw(st.sampled_from(THRESHOLDS))
            nodes[node][2] = grow(level + 1, on_deepest_path)
            nodes[node][3] = grow(level + 1, False)
        else:
            nodes[node][4] = draw(st.floats(-1e3, 1e3))
        return node

    grow(0, True)
    feature, threshold, left, right, value = zip(*nodes)
    return gbm.DecisionTree(
        feature=np.asarray(feature, dtype=np.int32), threshold=np.asarray(threshold),
        left=np.asarray(left, dtype=np.int32), right=np.asarray(right, dtype=np.int32),
        value=np.asarray(value))


@st.composite
def ensembles_and_rows(draw):
    p = draw(st.integers(1, 4))
    ens = gbm.TreeEnsemble(
        base_margin=draw(st.floats(-3.0, 3.0)),
        trees=draw(st.lists(random_trees(p), max_size=6)),
        learning_rate=draw(st.sampled_from([0.1, 0.3, 1.0])),
        n_features=p,
    )
    n = draw(st.integers(0, 20))
    cells = st.one_of(st.sampled_from(THRESHOLDS), st.floats(-2.0, 2.0))
    X = np.asarray(draw(st.lists(cells, min_size=n * p, max_size=n * p)),
                   dtype=np.float64).reshape(n, p)
    # rows x trees in one block, or over a budget of 1 up to rows x trees:
    # one-row blocks, a ragged last block or an exact multiple
    budget = draw(st.one_of(st.just(gbm.PREDICT_BLOCK_ELEMENTS),
                            st.integers(1, max(1, n * len(ens.trees)))))
    return ens, X, budget


def _lone_leaf(value):
    return gbm.DecisionTree(feature=np.array([-1], dtype=np.int32), threshold=np.zeros(1),
                            left=np.array([-1], dtype=np.int32),
                            right=np.array([-1], dtype=np.int32), value=np.array([value]))


def _stump(threshold, low, high):
    return gbm.DecisionTree(feature=np.array([0, -1, -1], dtype=np.int32),
                            threshold=np.array([threshold, 0.0, 0.0]),
                            left=np.array([1, -1, -1], dtype=np.int32),
                            right=np.array([2, -1, -1], dtype=np.int32),
                            value=np.array([0.0, low, high]))


STUMPS = gbm.TreeEnsemble(base_margin=0.5, trees=[_stump(0.0, 0.3, -0.7), _stump(0.5, 1.1, 0.2)],
                          learning_rate=0.1, n_features=1)
EIGHT_ROWS = np.linspace(-1.0, 1.0, 8)[:, None]


@settings(max_examples=200, deadline=None)
@given(ensembles_and_rows())
@example((gbm.TreeEnsemble(base_margin=0.5, trees=[], learning_rate=0.1, n_features=2),
          np.zeros((3, 2)), gbm.PREDICT_BLOCK_ELEMENTS))  # zero trees
@example((gbm.TreeEnsemble(base_margin=0.5, trees=[_lone_leaf(0.3), _lone_leaf(-7.0)],
                           learning_rate=0.1, n_features=1), np.zeros((3, 1)),
          gbm.PREDICT_BLOCK_ELEMENTS))  # root-only trees
@example((STUMPS, EIGHT_ROWS, 1))  # one-row blocks
@example((STUMPS, EIGHT_ROWS, 6))  # blocks of 3, 3 and 2 rows
@example((STUMPS, EIGHT_ROWS, 8))  # two blocks of 4 rows
def test_margin_matches_the_loop(case):
    ens, X, budget = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gbm, "PREDICT_BLOCK_ELEMENTS", budget)
        fast = gbm.predict_margin_batch(ens, X)
    assert fast.tobytes() == loop_predict_margin(ens, X).tobytes()


def test_prediction_memory_does_not_grow_with_the_rows():
    # rows go down the trees a block of PREDICT_BLOCK_ELEMENTS rows x trees
    # at a time; routing every row at once held about 2.7 x rows x trees x 8
    # bytes, 10.1 MB here
    rng = np.random.default_rng(0)
    X = rng.normal(size=(600, 8))
    y = (X[:, 0] + rng.normal(size=600) > 0).astype(np.float64)
    ens = gbm.fit(X, y, gbm.GbmConfig(n_trees=100))
    rows = rng.normal(size=(5000, 8))
    assert traced_peak(gbm.predict_margin_batch, ens, rows) <= 1_000_000 + rows.shape[0] * 8
