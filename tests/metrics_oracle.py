"""Reference numpy label metrics, kept as an oracle for `zsbench.metrics`.

These are the label metrics and the run aggregation as they were before the
metric layer dropped numpy: the confusion matrix becomes an int64 array,
sums and dot products run in numpy, and means and standard deviations are
`np.mean` and `np.std(ddof=1)`. The plain-Python code must return the same
floats, bit for bit. The only edit is `_as_array(cm)` for the deleted
`ConfusionMatrix.as_array()`.
"""

from __future__ import annotations

import math

import numpy as np

from zsbench.metrics import ConfusionMatrix, MetricsError, RunAggregate


def _as_array(cm: ConfusionMatrix) -> np.ndarray:
    return np.array(cm.counts, dtype=np.int64)


def accuracy(cm: ConfusionMatrix) -> float:
    a = _as_array(cm)
    total = a.sum()
    if total == 0:
        raise MetricsError("empty confusion matrix")
    return float(np.trace(a) / total)


def per_class_prf(cm: ConfusionMatrix) -> dict[str, dict[str, float]]:
    """Per-class precision, recall and F1 with 0/0 -> 0."""
    a = _as_array(cm).astype(float)
    out = {}
    for i, label in enumerate(cm.schema.labels):
        tp = a[i, i]
        fp = a[:, i].sum() - tp
        fn = a[i, :].sum() - tp
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = (
            2 * precision * recall / (precision + recall)
            if precision + recall > 0
            else 0.0
        )
        out[label] = {"precision": precision, "recall": recall, "f1": f1}
    return out


def macro_f1(cm: ConfusionMatrix) -> float:
    if cm.total == 0:
        raise MetricsError("empty confusion matrix")
    prf = per_class_prf(cm)
    return float(np.mean([v["f1"] for v in prf.values()]))


def mcc(cm: ConfusionMatrix) -> float:
    """Multi-class Matthews correlation (covariance form over the matrix)."""
    a = _as_array(cm).astype(float)
    s = a.sum()
    if s == 0:
        raise MetricsError("empty confusion matrix")
    c = np.trace(a)
    t = a.sum(axis=1)  # true counts
    p = a.sum(axis=0)  # predicted counts
    cov = c * s - float(t @ p)
    denom = math.sqrt(s * s - float(p @ p)) * math.sqrt(s * s - float(t @ t))
    if denom == 0:
        return 0.0
    return float(cov / denom)


def aggregate_runs(values: list[float], metric: str = "") -> RunAggregate:
    """Mean and (n-1) standard deviation; std is undefined for one value."""
    if not values:
        raise MetricsError("no values to aggregate")
    mean = float(np.mean(values))
    std = float(np.std(values, ddof=1)) if len(values) >= 2 else None
    return RunAggregate(metric=metric, values=tuple(values), mean=mean, std=std)
