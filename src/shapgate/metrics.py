"""Binary classification metrics.

Precision / recall / F1 are support-weighted across the two classes, which
makes weighted recall coincide with accuracy, the reporting convention the
rest of the pipeline relies on. AUC is computed two independent ways (mid-rank
Mann-Whitney and tie-aware trapezoidal ROC integration) and the two must agree
to 1e-12; disagreement raises instead of silently returning either.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError

AUC_AGREEMENT_TOL = 1e-12
THRESHOLD = 0.5  # a row is predicted positive when its probability exceeds this
# the metrics every report lists, in the order its tables and lines show them
REPORTED = ("precision", "recall", "f1", "accuracy", "auc")


@dataclass
class ConfusionMetrics:
    """Thresholded metrics only (no ranking metrics)."""

    precision: float
    recall: float
    f1: float
    accuracy: float
    degenerate_precision: bool = False


@dataclass(kw_only=True)
class EvalReport(ConfusionMetrics):
    """Metric bundle for one model variant on one split: the thresholded
    metrics plus the AUC and the ROC points it integrates."""

    auc: float
    roc_points: list[tuple[float, float]]

    def metric_dict(self):
        return {name: getattr(self, name) for name in REPORTED}


def _check_binary_labels(labels):
    labels = np.asarray(labels)
    uniq = np.unique(labels)
    if not np.all(np.isin(uniq, (0, 1))):
        raise DataError(f"labels must be binary 0/1, got values {uniq.tolist()}")
    return labels.astype(np.int64)


def classification_metrics(probabilities, labels):
    """Support-weighted precision/recall/F1 plus accuracy at THRESHOLD.

    A class with no predicted members gets precision 0 and the
    ``degenerate_precision`` flag is set.
    """
    probs = np.asarray(probabilities, dtype=np.float64)
    labels = _check_binary_labels(labels)
    if probs.shape != labels.shape:
        raise DataError(f"length mismatch: {probs.shape} scores vs {labels.shape} labels")
    n = probs.size
    if n == 0:
        raise DataError("empty input")
    if not np.all(np.isfinite(probs)):
        raise NumericalError("non-finite probabilities")

    preds = (probs > THRESHOLD).astype(np.int64)
    accuracy = float(np.mean(preds == labels))

    degenerate = False
    weighted = {"precision": 0.0, "recall": 0.0, "f1": 0.0}
    total_tp = 0
    for cls in (0, 1):
        support = int(np.sum(labels == cls))
        tp = int(np.sum((preds == cls) & (labels == cls)))
        predicted = int(np.sum(preds == cls))
        if predicted == 0:
            prec = 0.0
            if support > 0:
                degenerate = True
        else:
            prec = tp / predicted
        rec = tp / support if support > 0 else 0.0
        f1 = 0.0 if prec + rec == 0 else 2 * prec * rec / (prec + rec)
        w = support / n
        weighted["precision"] += w * prec
        weighted["f1"] += w * f1
        total_tp += tp
    # The support weights telescope: sum_c (n_c/n)(tp_c/n_c) = (sum_c tp_c)/n.
    # Dividing once keeps weighted recall bit-identical to accuracy; the
    # accumulated form drifts by an ulp on roughly a third of confusion tables.
    weighted["recall"] = total_tp / n

    return ConfusionMetrics(
        precision=weighted["precision"],
        recall=weighted["recall"],
        f1=weighted["f1"],
        accuracy=accuracy,
        degenerate_precision=degenerate,
    )


def _rank_auc(scores, labels):
    """Mann-Whitney AUC with mid-ranks: P(s+ > s-) + 0.5 P(s+ = s-)."""
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    # tie group [first, last] of the ascending scores; its 1-based mid-rank
    first = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    last = np.r_[first[1:], len(scores)] - 1
    ranks = np.empty(len(scores), dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)
    rank_sum_pos = float(np.sum(ranks[labels == 1]))
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def _roc_curve(scores, labels):
    """Tie-aware ROC curve from (0,0) to (1,1), thresholds descending."""
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    order = np.argsort(-scores, kind="mergesort")
    s = scores[order]
    # one point per threshold: the end of each tie group of the descending scores
    ends = np.flatnonzero(np.r_[s[1:] != s[:-1], True])
    tp = np.cumsum(labels[order])[ends]
    fp = ends + 1 - tp
    return [(0.0, 0.0), *zip((fp / n_neg).tolist(), (tp / n_pos).tolist())]


def _trapezoid_auc(points):
    auc = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        auc += (x1 - x0) * (y0 + y1) / 2.0
    return auc


def roc_auc(scores, labels):
    """AUC plus the ROC points it integrates.

    Returns ``(auc, roc_points)``. Raises DataError when only one class is
    present and NumericalError if the rank and trapezoid routes disagree.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = _check_binary_labels(labels)
    if scores.shape != labels.shape:
        raise DataError(f"length mismatch: {scores.shape} scores vs {labels.shape} labels")
    if not np.all(np.isfinite(scores)):
        raise NumericalError("non-finite scores")
    if np.all(labels == 1) or np.all(labels == 0):
        raise DataError("AUC needs both classes present")

    auc_rank = _rank_auc(scores, labels)
    points = _roc_curve(scores, labels)
    auc_trap = _trapezoid_auc(points)
    if abs(auc_rank - auc_trap) > AUC_AGREEMENT_TOL:
        raise NumericalError(
            f"rank AUC {auc_rank!r} and trapezoid AUC {auc_trap!r} disagree beyond {AUC_AGREEMENT_TOL}"
        )
    return auc_rank, points


def evaluate(probabilities, labels):
    """Full EvalReport: thresholded metrics plus AUC/ROC."""
    cm = classification_metrics(probabilities, labels)
    auc, points = roc_auc(np.asarray(probabilities, dtype=np.float64), labels)
    return EvalReport(**vars(cm), auc=auc, roc_points=points)
