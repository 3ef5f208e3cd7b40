"""Binary classification metrics: confusion counts, the four ratio metrics,
and ROC AUC via trapezoidal integration with half-credit for ties.

Zero-denominator ratios evaluate to 0.0 instead of erroring, so evaluation
over tiny test splits never aborts a sweep; :func:`evaluate` records which
metrics degenerated in the report.
"""

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


def _as_binary(values, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.isin(arr, (0, 1)).all():
        raise ValueError(f"{name} must contain only 0 and 1")
    return arr.astype(int)


def confusion(y_true, y_pred) -> ConfusionCounts:
    """Count the four confusion cells; class 1 is the positive class."""
    yt = _as_binary(y_true, "y_true")
    yp = _as_binary(y_pred, "y_pred")
    if yt.shape != yp.shape:
        raise ValueError(f"length mismatch: {yt.size} labels vs {yp.size} predictions")
    tn, fp, fn, tp = np.bincount((2 * yt + yp).ravel(), minlength=4).tolist()
    return ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)


def _ratio(num: int, den: int) -> Optional[float]:
    return num / den if den else None


def _ratios(c: ConfusionCounts) -> Dict[str, Optional[float]]:
    """The four ratio metrics in report order; None where a denominator is zero."""
    acc = _ratio(c.tp + c.tn, c.total)
    pre = _ratio(c.tp, c.tp + c.fp)
    rec = _ratio(c.tp, c.tp + c.fn)
    f1_value = None
    if pre is not None and rec is not None and pre + rec != 0:
        f1_value = 2.0 * pre * rec / (pre + rec)
    return {"accuracy": acc, "precision": pre, "recall": rec, "f1": f1_value}


def roc_auc(y_true, scores) -> float:
    """Area under the ROC curve by trapezoidal integration.

    Tied scores are grouped into single curve points, so ties contribute
    exactly one half; the result equals the probability that a random
    positive outranks a random negative.
    """
    yt = _as_binary(y_true, "y_true")
    s = np.asarray(scores, dtype=float)
    if yt.shape != s.shape:
        raise ValueError(f"length mismatch: {yt.size} labels vs {s.size} scores")
    n_pos = int((yt == 1).sum())
    n_neg = yt.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc_auc requires both classes present")

    order = np.argsort(-s, kind="stable")
    y_sorted = yt[order]
    s_sorted = s[order]
    # Keep one cumulative point per distinct score (the end of each tie group).
    group_end = np.nonzero(np.append(np.diff(s_sorted) != 0, True))[0]
    tpr = np.cumsum(y_sorted)[group_end] / n_pos
    fpr = np.cumsum(1 - y_sorted)[group_end] / n_neg
    tpr = np.concatenate(([0.0], tpr))
    fpr = np.concatenate(([0.0], fpr))
    return float(((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1]) / 2.0).sum())


@dataclass(frozen=True)
class EvalReport:
    """One evaluation row: the five headline metrics plus raw counts."""

    accuracy: float
    auc: float
    precision: float
    recall: float
    f1: float
    counts: ConfusionCounts
    degenerate: Tuple[str, ...] = ()


def check_unit_interval(value, name: str = "threshold", error=ValueError) -> None:
    """Raise ``error`` naming ``name`` unless ``0 < value < 1``."""
    if not 0 < value < 1:
        raise error(f"{name} must lie in (0, 1), got {value}")


def evaluate(y_true, scores, threshold: float = 0.5) -> EvalReport:
    """Threshold scores into labels and assemble the full report."""
    check_unit_interval(threshold)
    s = np.asarray(scores, dtype=float)
    y_pred = (s >= threshold).astype(int)
    c = confusion(y_true, y_pred)

    ratios = _ratios(c)
    values = {name: 0.0 if v is None else v for name, v in ratios.items()}
    return EvalReport(
        auc=roc_auc(y_true, s),
        counts=c,
        degenerate=tuple(name for name, v in ratios.items() if v is None),
        **values,
    )
