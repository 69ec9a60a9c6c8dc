import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import loop_rank_auc, loop_roc_curve
from shapgate import metrics
from shapgate.errors import DataError, NumericalError
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


@pytest.mark.parametrize("labels, shown", [
    ([0, 2], "[0, 2]"),
    ([0, 0.5], "[0.0, 0.5]"),
    ([1, np.nan], "[1.0, nan]"),
    (["0", "1"], "['0', '1']"),
])
def test_labels_other_than_0_and_1_rejected(labels, shown):
    for check in (classification_metrics, roc_auc):
        with pytest.raises(DataError) as err:
            check([0.2, 0.8], labels)
        assert str(err.value) == f"labels must be binary 0/1, got values {shown}"


def test_bool_labels_accepted():
    assert roc_auc([0.2, 0.8], [False, True])[0] == 1.0
    assert classification_metrics([0.2, 0.8], np.array([False, True])).accuracy == 1.0


MEDIAN_VALUES = st.one_of(st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324]),
                          st.floats())


@settings(max_examples=500, deadline=None)
@given(st.lists(MEDIAN_VALUES, min_size=1, max_size=8))
@example([0.0, -0.0])  # an even size: the mean of the middle two
@example([-0.0, 0.0, -0.0])  # an odd size: the middle one
@example([np.inf, -np.inf])  # a NaN mean
@example([1.0, np.nan, 2.0, 3.0])  # a NaN
def test_median_is_np_median_bit_for_bit(values):
    with np.errstate(invalid="ignore", over="ignore"):  # a mean of -inf and inf, or of huge values
        expected, got = np.median(values), metrics.median(values)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(expected).tobytes()


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
    assert rep.roc_points[0] == (0.0, 0.0) and rep.roc_points[-1] == (1.0, 1.0)
    assert rep.accuracy == 0.75  # 0.4 is below the 0.5 threshold: one positive missed
    assert 0.0 <= rep.auc <= 1.0
    assert rep.recall == pytest.approx(rep.accuracy)


@st.composite
def tied_scores(draw):
    """Scores drawn from a few levels, so most values tie; both classes present."""
    n = draw(st.integers(2, 40))
    levels = draw(st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=6))
    scores = draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
    labels = draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n))
    if min(labels) == max(labels):
        labels[0] = 1 - labels[0]
    return np.asarray(scores, dtype=np.float64), np.asarray(labels, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(tied_scores())
@example((np.array([0.4, 0.4]), np.array([0, 1])))  # n = 2, one tie group
@example((np.array([0.7, 0.1]), np.array([1, 0])))  # n = 2, no tie
@example((np.full(7, 0.25), np.array([1, 0, 0, 1, 1, 0, 1])))  # all tied
@example((np.array([0.0, -0.0, 0.0, 0.5, -0.0]), np.array([1, 0, 0, 1, 1])))  # signed zeros tie
def test_array_auc_routes_match_the_loops(case):
    scores, labels = case
    assert repr(metrics._rank_auc(scores, labels)) == repr(loop_rank_auc(scores, labels))
    assert repr(metrics._roc_curve(scores, labels)) == repr(loop_roc_curve(scores, labels))


def test_auc_routes_disagreeing_by_1e9_raise(monkeypatch):
    exact = metrics._trapezoid_auc
    monkeypatch.setattr(metrics, "_trapezoid_auc", lambda points: exact(points) + 1e-9)
    with pytest.raises(NumericalError, match="disagree"):
        roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
