"""Classification metrics: confusion matrix, per-class precision/recall/F1,
and micro-averaged one-vs-rest ROC-AUC / average precision.

Zero denominators never produce NaN: the metric is reported as 0 and the
class is flagged undefined, so exported CSVs stay numeric. Curve sweeps
process tied scores as a single threshold group.
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


@dataclass(frozen=True)
class ConfusionMatrix:
    """counts[i, j] = number of samples with true class i predicted as j."""

    counts: np.ndarray

    @property
    def n_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def confusion(predictions, labels, n_classes: int) -> ConfusionMatrix:
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
    return ConfusionMatrix(counts)


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
    micro_precision: float
    micro_recall: float
    micro_f1: float


def _ratio(num, den):
    """(num / den, 0 where den is not > 0; the mask of those undefined entries)."""
    defined = den > 0
    return np.divide(num, den, out=np.zeros(np.shape(den)), where=defined), ~defined


def class_report(cm: ConfusionMatrix) -> ClassReport:
    """One-vs-rest per-class metrics plus macro and micro averages."""
    if cm.total == 0:
        raise EmptyMatrix("confusion matrix has no samples")
    counts = cm.counts
    tp = np.diag(counts).astype(np.float64)
    fp = counts.sum(axis=0) - tp
    fn = counts.sum(axis=1) - tp
    precision, undefined_p = _ratio(tp, tp + fp)
    recall, undefined_r = _ratio(tp, tp + fn)
    f1, undefined_f1 = _ratio(2 * precision * recall, precision + recall)

    tp_sum = tp.sum()
    accuracy = float(tp_sum / cm.total)
    micro_p = _ratio(tp_sum, tp_sum + fp.sum())[0]
    micro_r = _ratio(tp_sum, tp_sum + fn.sum())[0]
    micro_f1 = _ratio(2 * micro_p * micro_r, micro_p + micro_r)[0]
    return ClassReport(
        precision=precision,
        recall=recall,
        f1=f1,
        undefined=undefined_p | undefined_r | undefined_f1,
        accuracy=accuracy,
        macro_precision=float(precision.mean()),
        macro_recall=float(recall.mean()),
        macro_f1=float(f1.mean()),
        micro_precision=float(micro_p),
        micro_recall=float(micro_r),
        micro_f1=float(micro_f1),
    )


# ---------------------------------------------------------------------------
# ranking curves (micro-averaged one-vs-rest)
# ---------------------------------------------------------------------------


def _check_rows(p: np.ndarray) -> None:
    """`as_distribution` on every row of a C-contiguous (n, C) matrix at once.

    The mask applies its checks and tolerance to all rows in one pass; the
    first bad row then goes through `as_distribution`, which raises the
    error the row-by-row loop would. C order matters: on a Fortran-ordered
    matrix `sum(axis=1)` adds in another order than a row's own `sum()`,
    and can differ from it in the last bit.
    """
    with np.errstate(invalid="ignore"):  # inf - inf in a row sum
        bad = (
            (p.shape[1] < 2)
            | ~np.isfinite(p).all(axis=1)
            | (p < -_DIST_TOL).any(axis=1)
            | (p > 1.0 + _DIST_TOL).any(axis=1)
            | (np.abs(p.sum(axis=1) - 1.0) > _DIST_TOL)
        )
    if bad.any():
        as_distribution(p[np.argmax(bad)])


def _flatten_ovr(probabilities, labels):
    """All (sample, class) pairs as binary (score, is-true-class) instances."""
    p = np.asarray(probabilities, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if p.ndim != 2 or p.shape[0] != y.shape[0]:
        raise LengthMismatch(f"{p.shape} probabilities vs {y.shape} labels")
    if p.shape[0] < 2:
        raise InvalidShape("need at least 2 samples")
    p = np.ascontiguousarray(p)
    _check_rows(p)
    if y.min() < 0 or y.max() >= p.shape[1]:
        raise IndexOutOfRange(f"label outside [0, {p.shape[1]})")
    scores = p.ravel()
    hits = np.zeros(p.shape, dtype=bool)
    hits[np.arange(y.size), y] = True
    # each row gives one positive and C - 1 >= 1 negative pairs
    return scores, hits.ravel(), y.size, y.size * (p.shape[1] - 1)


def _threshold_groups(scores, hits):
    """Cumulative TP/FP after each tie group of the descending score sweep.

    Only the counts at group ends are read, and they do not depend on the
    order inside a group, so the sort need not be stable.
    """
    order = np.argsort(-scores)
    s = scores[order]
    h = hits[order]
    boundary = np.flatnonzero(np.diff(s) != 0)
    ends = np.append(boundary, s.size - 1)
    cum_tp = np.cumsum(h)[ends]
    cum_fp = np.cumsum(~h)[ends]
    return cum_tp.astype(np.float64), cum_fp.astype(np.float64)


@dataclass(frozen=True)
class RocCurve:
    auc: float
    fpr: np.ndarray
    tpr: np.ndarray


@dataclass(frozen=True)
class PrCurve:
    average_precision: float
    recall: np.ndarray
    precision: np.ndarray


def _roc_curve(cum_tp, cum_fp, n_pos: int, n_neg: int) -> RocCurve:
    tpr = np.concatenate(([0.0], cum_tp / n_pos))
    fpr = np.concatenate(([0.0], cum_fp / n_neg))
    auc = float(np.trapezoid(tpr, fpr))
    return RocCurve(auc, fpr, tpr)


def _pr_curve(cum_tp, cum_fp, n_pos: int) -> PrCurve:
    recall = cum_tp / n_pos
    precision = cum_tp / (cum_tp + cum_fp)
    deltas = np.diff(np.concatenate(([0.0], recall)))
    ap = float((deltas * precision).sum())
    return PrCurve(ap, recall, precision)


def micro_curves(probabilities, labels) -> tuple[RocCurve, PrCurve]:
    """Micro-averaged one-vs-rest ROC and PR curves: every (sample, class)
    pair flattened, validated once and swept once for both curves."""
    scores, hits, n_pos, n_neg = _flatten_ovr(probabilities, labels)
    cum_tp, cum_fp = _threshold_groups(scores, hits)
    return _roc_curve(cum_tp, cum_fp, n_pos, n_neg), _pr_curve(cum_tp, cum_fp, n_pos)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def report_csv(report: ClassReport) -> str:
    """Wide CSV: one row per class plus macro and micro rows."""
    lines = ["name,precision,recall,f1,undefined"]
    for k in range(report.precision.size):
        lines.append(
            f"class_{k},{report.precision[k]!r},{report.recall[k]!r},"
            f"{report.f1[k]!r},{int(report.undefined[k])}"
        )
    lines.append(
        f"macro,{report.macro_precision!r},{report.macro_recall!r},{report.macro_f1!r},0"
    )
    lines.append(
        f"micro,{report.micro_precision!r},{report.micro_recall!r},{report.micro_f1!r},0"
    )
    return "\n".join(lines) + "\n"


def summary_csv(report: ClassReport, roc: RocCurve | None = None,
                pr: PrCurve | None = None) -> str:
    """Key-value CSV with accuracy and, when available, AUC / AP."""
    lines = ["key,value", f"accuracy,{report.accuracy!r}"]
    if roc is not None:
        lines.append(f"auc_micro,{roc.auc!r}")
    if pr is not None:
        lines.append(f"ap_micro,{pr.average_precision!r}")
    return "\n".join(lines) + "\n"
