"""Classification metrics: confusion matrix, per-class precision/recall/F1,
and micro-averaged one-vs-rest ROC-AUC / average precision.

Zero denominators never produce NaN: the metric is reported as 0 and the
class is flagged undefined, so exported CSVs stay numeric. AUC and AP
are two numbers from one sort of the scores (`micro_auc_ap`), counted
per tie group, each group one threshold; no curve points are kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyMatrix,
    IndexOutOfRange,
    InvalidShape,
    LengthMismatch,
)
from .numerics import _DIST_TOL, as_distribution


def confusion(predictions, labels, n_classes: int) -> np.ndarray:
    """(C, C) int64 counts: [i, j] = number of samples with true class i
    predicted as j."""
    pred = np.asarray(predictions, dtype=np.int64)
    true = np.asarray(labels, dtype=np.int64)
    if pred.shape != true.shape or pred.ndim != 1:
        raise LengthMismatch(f"{pred.shape} predictions vs {true.shape} labels")
    if n_classes < 2:
        raise InvalidShape("need at least 2 classes")
    if pred.size and (pred.min() < 0 or pred.max() >= n_classes
                      or true.min() < 0 or true.max() >= n_classes):
        raise IndexOutOfRange(f"class index outside [0, {n_classes})")
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (true, pred), 1)
    return counts


@dataclass(frozen=True)
class ClassReport:
    precision: np.ndarray  # per class
    recall: np.ndarray
    f1: np.ndarray
    undefined: np.ndarray  # bool per class: some denominator was zero
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float


def _ratio(num, den):
    """(num / den, 0 where den is not > 0; the mask of those undefined entries)."""
    defined = den > 0
    return np.divide(num, den, out=np.zeros(np.shape(den)), where=defined), ~defined


def class_report(counts: np.ndarray) -> ClassReport:
    """One-vs-rest per-class metrics, accuracy and macro averages of
    confusion's counts.

    Micro precision, recall and F1 are not kept: with one label and one
    prediction per sample each equals the accuracy.
    """
    total = counts.sum()
    if total == 0:
        raise EmptyMatrix("confusion matrix has no samples")
    tp = np.diag(counts).astype(np.float64)
    precision, undefined_p = _ratio(tp, counts.sum(axis=0))
    recall, undefined_r = _ratio(tp, counts.sum(axis=1))
    f1, undefined_f1 = _ratio(2 * precision * recall, precision + recall)
    return ClassReport(
        precision=precision,
        recall=recall,
        f1=f1,
        undefined=undefined_p | undefined_r | undefined_f1,
        accuracy=float(tp.sum() / total),
        macro_precision=float(precision.mean()),
        macro_recall=float(recall.mean()),
        macro_f1=float(f1.mean()),
    )


# ---------------------------------------------------------------------------
# AUC and AP (micro-averaged one-vs-rest)
# ---------------------------------------------------------------------------


def _first_bad_row(p: np.ndarray):
    """The index of the first row of a C-contiguous (n, C) matrix that
    `as_distribution` rejects, or None.

    Whole-matrix reductions pass a valid matrix (NaN fails the minimum);
    else a mask applies the same checks to all rows in one pass. C order
    matters: on a Fortran-ordered matrix `sum(axis=1)` adds in another
    order than a row's own `sum()`, and can differ in the last bit.
    """
    if (p.shape[1] >= 2 and p.min() >= -_DIST_TOL and p.max() <= 1.0 + _DIST_TOL
            and (np.abs(p.sum(axis=1) - 1.0) <= _DIST_TOL).all()):
        return None
    with np.errstate(invalid="ignore"):  # inf - inf in a row sum
        bad = (
            (p.shape[1] < 2)
            | ~np.isfinite(p).all(axis=1)
            | (p < -_DIST_TOL).any(axis=1)
            | (p > 1.0 + _DIST_TOL).any(axis=1)
            | (np.abs(p.sum(axis=1) - 1.0) > _DIST_TOL)
        )
    return int(np.argmax(bad)) if bad.any() else None


def _flatten_ovr(probabilities, labels):
    """All (sample, class) pairs as binary (score, is-true-class) instances."""
    p = np.asarray(probabilities, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if p.ndim != 2 or p.shape[0] != y.shape[0]:
        raise LengthMismatch(f"{p.shape} probabilities vs {y.shape} labels")
    if p.shape[0] < 2:
        raise InvalidShape("need at least 2 samples")
    p = np.ascontiguousarray(p)
    if (row := _first_bad_row(p)) is not None:
        as_distribution(p[row])  # raises the error a row-by-row check would
    if y.min() < 0 or y.max() >= p.shape[1]:
        raise IndexOutOfRange(f"label outside [0, {p.shape[1]})")
    scores = p.ravel()
    hits = np.zeros(p.shape, dtype=bool)
    hits[np.arange(y.size), y] = True
    # each row gives one positive and C - 1 >= 1 negative pairs
    return scores, hits.ravel(), y.size, y.size * (p.shape[1] - 1)


def _threshold_groups(scores, hits):
    """Cumulative TP/FP counts at each tie group of scores, highest first.

    One ascending sort gives the groups (-0.0 and 0.0 tie); a group's FP
    count is the number of scores at or above it less its TP count.
    """
    s = np.sort(scores)
    first = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
    tp = np.bincount(np.searchsorted(s[first], np.sort(scores[hits])), minlength=first.size)
    cum_tp = np.cumsum(tp[::-1], dtype=np.float64)  # integers, so exact
    return cum_tp, (s.size - first[::-1]) - cum_tp


def micro_auc_ap(probabilities, labels) -> tuple[float, float]:
    """(ROC-AUC, average precision), micro-averaged one-vs-rest: every
    (sample, class) pair flattened, validated once and counted once for both.

    AUC is the trapezoid area under (FPR, TPR); AP sums precision times
    each step of recall, which is TPR.
    """
    scores, hits, n_pos, n_neg = _flatten_ovr(probabilities, labels)
    cum_tp, cum_fp = _threshold_groups(scores, hits)
    tpr = np.concatenate(([0.0], cum_tp / n_pos))
    auc = float(np.trapezoid(tpr, np.concatenate(([0.0], cum_fp / n_neg))))
    ap = float((np.diff(tpr) * (cum_tp / (cum_tp + cum_fp))).sum())
    return auc, ap


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def report_csv(report: ClassReport) -> str:
    """Wide CSV: one row per class plus macro and micro rows; the micro
    precision, recall and F1 of single-label predictions are the accuracy."""
    lines = ["name,precision,recall,f1,undefined"]
    rows = zip(report.precision.tolist(), report.recall.tolist(), report.f1.tolist(),
               report.undefined.tolist())
    for k, (p, r, f1, undefined) in enumerate(rows):
        lines.append(f"class_{k},{p!r},{r!r},{f1!r},{int(undefined)}")
    lines.append(
        f"macro,{report.macro_precision!r},{report.macro_recall!r},{report.macro_f1!r},0"
    )
    a = report.accuracy
    lines.append(f"micro,{a!r},{a!r},{a!r},0")
    return "\n".join(lines) + "\n"


def summary_csv(report: ClassReport, micro: tuple[float, float] | None = None) -> str:
    """Key-value CSV with accuracy and, when given, micro_auc_ap's (AUC, AP)."""
    lines = ["key,value", f"accuracy,{report.accuracy!r}"]
    if micro is not None:
        lines += [f"auc_micro,{micro[0]!r}", f"ap_micro,{micro[1]!r}"]
    return "\n".join(lines) + "\n"
