import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import exact_shapley_oracle, leaf_boxes, loop_accumulate_tree
from shapgate import attribution, dataset, gbm, pipeline, synth
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
            for _, feats, _, _ in leaf_boxes(tree):
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


def node_tree(feature, threshold, left, right, value):
    """DecisionTree from per-node lists; feature -1 marks a leaf."""
    return gbm.DecisionTree(
        feature=np.array(feature, dtype=np.int32), threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int32), right=np.array(right, dtype=np.int32),
        value=np.array(value, dtype=np.float64), n_samples=np.ones(len(feature), dtype=np.int32),
    )


def uneven_paths_case():
    """Leaves on paths of 1, 2 and 3 features in one tree, after a root-only
    tree, with every row on an integer grid that includes the thresholds."""
    uneven = node_tree(
        feature=[0, -1, 1, -1, 2, -1, -1], threshold=[0.5, 0, 0.5, 0, 1.5, 0, 0],
        left=[1, -1, 3, -1, 5, -1, -1], right=[2, -1, 4, -1, 6, -1, -1],
        value=[0, 1.0, 0, -2.0, 0, 0.5, -0.25],
    )
    root_only = node_tree([-1], [0.0], [-1], [-1], [0.7])
    ens = gbm.TreeEnsemble(base_margin=0.1, trees=[root_only, uneven, uneven],
                           learning_rate=0.3, n_features=3)
    grid = np.array([[a, b, c] for a in (0, 0.5, 1) for b in (0, 0.5, 1) for c in (1, 1.5, 2)])
    return ens, grid, attribution.Background(rows=grid[::2]), None


def many_masks_case():
    """Continuous features at depth 5 and 80 background rows: leaves see 8
    or more z masks, where a pairwise sum over z would round differently."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(80, 4))
    y = (X[:, 0] + X[:, 1] * X[:, 2] + rng.normal(size=80) > 0).astype(int)
    ens = gbm.fit(X, y, gbm.GbmConfig(n_trees=5, max_depth=5))
    return ens, X[:20], attribution.Background(rows=X), None


@st.composite
def loop_cases(draw):
    """An ensemble, the rows to explain, a background and a block budget.

    Integer-valued features tie and repeat, some explained and background
    entries sit exactly on split thresholds, some leaves are zeroed, and a
    root-only tree may join. Depths 1-7 on few features give leaves whose
    paths have different lengths; small budgets split trees into several
    mask chunks and blocks into several x-mask slices.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 80))
    p = draw(st.integers(1, 6))
    X = rng.integers(0, draw(st.integers(1, 6)) + 1, size=(n, p)).astype(np.float64)
    y = rng.integers(0, 2, size=n)
    y[0], y[-1] = 0, 1
    config = gbm.GbmConfig(
        n_trees=draw(st.integers(1, 5)), max_depth=draw(st.integers(1, 7)),
        min_samples_leaf=draw(st.integers(1, 3)),
        learning_rate=draw(st.sampled_from([0.1, 0.5, 1.0])),
    )
    ens = gbm.fit(X, y, config)
    zero_share = draw(st.sampled_from([0.0, 0.3]))
    for tree in ens.trees:
        zeroed = (tree.feature < 0) & (rng.random(tree.feature.size) < zero_share)
        tree.value = np.where(zeroed, 0.0, tree.value)
    if draw(st.booleans()):
        root_only = node_tree([-1], [0.0], [-1], [-1], [float(rng.normal())])
        ens.trees.insert(int(rng.integers(len(ens.trees) + 1)), root_only)
    explained = X[rng.integers(0, n, size=draw(st.integers(1, 40)))]
    background = X[rng.integers(0, n, size=draw(st.integers(1, n)))]
    splits = [(f, t) for tree in ens.trees
              for f, t in zip(tree.feature.tolist(), tree.threshold.tolist()) if f >= 0]
    if splits:
        for rows in (explained, background):
            for i in np.flatnonzero(rng.random(rows.shape[0]) < 0.5):
                f, t = splits[int(rng.integers(len(splits)))]
                rows[i, f] = t
    budget = draw(st.sampled_from([None, 16, 64, 512]))
    return ens, explained, attribution.Background(rows=background), budget


@settings(max_examples=300, deadline=None)
@given(loop_cases())
@example(uneven_paths_case())
@example(many_masks_case())
@example((uneven_paths_case()[0], np.empty((0, 3))) + uneven_paths_case()[2:])  # no rows
@example(uneven_paths_case()[:3] + (16,))
@example(uneven_paths_case()[:2] + (attribution.Background(rows=np.array([[1.0, 0.0, 2.0]])), None))
def test_tree_tables_match_the_loop(case):
    # per-tree leaf tables against the per-leaf loop: each table entry is
    # the same ascending-z sequential sum and phi takes the leaves in the same
    # order, so every byte agrees
    ens, X, bg, budget = case
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(attribution, "_BLOCK_ELEMENTS", budget)
            mp.setattr(attribution, "_SMALL_BLOCK", budget >> 3)
        fast = attribution.shap_matrix(ens, X, bg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(attribution, "_accumulate_tree", loop_accumulate_tree)
        slow = attribution.shap_matrix(ens, X, bg)
    assert fast.values.tobytes() == slow.values.tobytes()
    assert fast.base_value == slow.base_value


def test_path_feature_cap():
    # a leaf on 13 distinct features is refused, as the per-leaf loop refused it
    # a chain: inner node f splits feature f, with a leaf on its left and
    # the next inner node on its right; the last leaf's path uses them all
    n = attribution.MAX_PATH_FEATURES + 1
    inner, leaves, none = list(range(n)), list(range(n, 2 * n + 1)), [-1] * (n + 1)
    tree = node_tree(inner + none, [0.0] * (2 * n + 1), leaves[:n] + none,
                     inner[1:] + leaves[n:] + none, [0.0] * n + [1.0] * (n + 1))
    ens = gbm.TreeEnsemble(base_margin=0.0, trees=[tree], learning_rate=1.0, n_features=n)
    bg = attribution.Background(rows=np.ones((2, n)))
    for accumulate in (attribution._accumulate_tree, loop_accumulate_tree):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(attribution, "_accumulate_tree", accumulate)
            with pytest.raises(DataError, match="at most 12"):
                attribution.shap_matrix(ens, np.ones((1, n)), bg)


@pytest.mark.parametrize("bad", [-np.inf, np.inf, np.nan])
def test_non_finite_inputs_rejected(bad):
    # the leaf intervals treat a non-finite entry as outside every box, which
    # broke local accuracy; gbm.fit refuses such features the same way
    rng = np.random.default_rng(45)
    ens, X = random_fit(rng, n_trees=5, max_depth=2)
    bg = attribution.Background(rows=X[:10])
    explained = X[:3].copy()
    explained[1, 0] = bad
    with pytest.raises(DataError, match="finite"):
        attribution.shap_matrix(ens, explained, bg)
    background = X[:10].copy()
    background[4, 1] = bad
    with pytest.raises(DataError, match="finite"):
        attribution.Background(rows=background)
    with pytest.raises(DataError, match="finite"):
        attribution.make_background(background, np.arange(10))


def test_depth_7_peak_memory(tmp_path):
    # masks are built per leaf chunk and blocks stay within the element
    # budget; the per-leaf loop peaked at 2.1 MB here, and one block per
    # tree padded to its largest mask counts at 47 MB
    path = synth.write_synthetic("heart", tmp_path / dataset.SCHEMAS["heart"].default_filename)
    config = pipeline.ExperimentConfig(dataset="heart", master_seed=0)
    prepared = pipeline.prepare(config, path)
    X, y = prepared.matrix.values, prepared.matrix.labels
    ens = gbm.fit(X[prepared.train_ids], y[prepared.train_ids], gbm.GbmConfig(n_trees=20, max_depth=7))
    bg = attribution.make_background(X, prepared.train_ids, seed=pipeline.child_seed(0, 1))
    rows = np.concatenate([prepared.train_ids, prepared.test_ids])
    tracemalloc.start()
    try:
        attribution.shap_matrix(ens, prepared.matrix, bg, rows=rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3_000_000


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
