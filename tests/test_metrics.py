import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapgate.errors import DataError
from shapgate.metrics import classification_metrics, evaluate, roc_auc


def test_perfect_predictions_all_ones():
    labels = [1, 1, 0, 0, 1]
    probs = [0.9, 0.8, 0.1, 0.2, 0.99]
    cm = classification_metrics(probs, labels)
    assert cm.precision == cm.recall == cm.f1 == cm.accuracy == 1.0
    auc, _ = roc_auc(probs, labels)
    assert auc == 1.0


def test_hand_computed_confusion_example():
    # labels [1,1,0,0], probs [0.9,0.4,0.4,0.1] at 0.5 -> preds [1,0,0,0]
    # class 1: TP=1 of support 2 -> prec 1, rec 0.5, f1 2/3
    # class 0: predicted 3, TP=2 -> prec 2/3, rec 1, f1 4/5
    cm = classification_metrics([0.9, 0.4, 0.4, 0.1], [1, 1, 0, 0])
    assert cm.accuracy == pytest.approx(0.75)
    assert cm.recall == pytest.approx(0.75)  # weighted recall == accuracy
    assert cm.precision == pytest.approx(0.5 * 1.0 + 0.5 * (2 / 3))
    assert cm.f1 == pytest.approx(0.5 * (2 / 3) + 0.5 * (4 / 5))


def test_weighted_recall_equals_accuracy_random_trials():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = rng.integers(2, 40)
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        probs = rng.random(n)
        cm = classification_metrics(probs, labels)
        assert cm.recall == pytest.approx(cm.accuracy, abs=1e-15)


def test_auc_derived_pair_enumeration():
    # positives {0.35, 0.8} vs negatives {0.1, 0.4}: 3 wins, 1 loss -> 0.75
    auc, pts = roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
    assert auc == pytest.approx(0.75)
    assert pts[0] == (0.0, 0.0) and pts[-1] == (1.0, 1.0)


def test_auc_all_ties_is_half():
    auc, _ = roc_auc([0.3, 0.3, 0.3, 0.3], [0, 1, 0, 1])
    assert auc == pytest.approx(0.5)


def test_auc_perfect_ranking():
    auc, _ = roc_auc([0.6, 0.7, 0.2, 0.1], [1, 1, 0, 0])
    assert auc == 1.0


def test_single_class_rejected():
    with pytest.raises(DataError):
        roc_auc([0.1, 0.2], [1, 1])
    with pytest.raises(DataError):
        classification_metrics([], [])


def test_degenerate_precision_flagged():
    # everything predicted positive -> class 0 has no predicted members
    cm = classification_metrics([0.9, 0.8, 0.7], [1, 1, 0])
    assert cm.degenerate_precision
    # class 0 contributes precision 0: weighted precision is (2/3) * (2/3) only
    assert cm.precision == pytest.approx(4.0 / 9.0, abs=1e-15)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=2, max_size=30),
    st.data(),
)
def test_auc_invariant_under_monotone_transform(scores, data):
    labels = data.draw(
        st.lists(st.sampled_from([0, 1]), min_size=len(scores), max_size=len(scores))
    )
    if sum(labels) in (0, len(labels)):
        labels[0] = 1 - labels[0]
    # coarse grid keeps the float transform strictly monotone on distinct scores
    scores = np.round(np.asarray(scores), 2)
    base, _ = roc_auc(scores, labels)
    warped, _ = roc_auc(np.exp(scores / 25.0) + 3.0, labels)
    assert warped == pytest.approx(base, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(min_value=-9, max_value=9, allow_nan=False), min_size=2, max_size=30),
    st.data(),
)
def test_auc_complement_symmetry(scores, data):
    labels = data.draw(
        st.lists(st.sampled_from([0, 1]), min_size=len(scores), max_size=len(scores))
    )
    if sum(labels) in (0, len(labels)):
        labels[0] = 1 - labels[0]
    scores = np.asarray(scores)
    flipped = np.asarray([1 - y for y in labels])
    a, _ = roc_auc(scores, labels)
    b, _ = roc_auc(-scores, flipped)
    assert b == pytest.approx(a, abs=1e-12)


def test_roc_points_monotone_and_anchored():
    rng = np.random.default_rng(0)
    scores = np.round(rng.random(60), 1)  # force ties
    labels = rng.integers(0, 2, 60)
    labels[0], labels[1] = 0, 1
    _, pts = roc_auc(scores, labels)
    assert pts[0] == (0.0, 0.0)
    assert pts[-1] == (1.0, 1.0)
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    assert all(a <= b for a, b in zip(xs, xs[1:]))
    assert all(a <= b for a, b in zip(ys, ys[1:]))


def test_evaluate_bundles_everything():
    rep = evaluate([0.9, 0.4, 0.4, 0.1], [1, 1, 0, 0])
    assert rep.n == 4
    assert rep.accuracy == 0.75  # 0.4 is below the 0.5 threshold: one positive missed
    assert 0.0 <= rep.auc <= 1.0
    assert rep.recall == pytest.approx(rep.accuracy)
