"""Evaluation suite: confusion matrix, ACC, macro-F1, MCC, one-vs-rest AUC,
and mean±std aggregation of repeated runs.

Conventions: per-class F1 with no predictions and no positives is 0; MCC
with a zero denominator is 0; AUC uses the Mann-Whitney rank statistic
with ties counted as half.

The label metrics and the aggregation are plain Python, so a run whose
predictors are all LLMs never imports numpy; AUC, which only a baseline's
score array reaches, imports it when called. The floats are those numpy
gives, bit for bit: counts are integers, so their sums and dot products are
exact, and float sums follow numpy's pairwise order (`_numpy_sum`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .dataset import LabelSchema

if TYPE_CHECKING:
    import numpy as np


class MetricsError(ValueError):
    """Raised for malformed metric input."""


def _pairwise(values: list[float], start: int, n: int) -> float:
    """numpy's pairwise sum of the float64s values[start:start + n]."""
    if n < 8:
        total = 0.0
        for i in range(start, start + n):
            total += values[i]
        return total
    if n <= 128:
        # eight running sums, then the rest one by one
        r = values[start : start + 8]
        end = start + n - n % 8
        for i in range(start + 8, end, 8):
            for j in range(8):
                r[j] += values[i + j]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for i in range(end, start + n):
            total += values[i]
        return total
    half = n // 2 - n // 2 % 8
    return _pairwise(values, start, half) + _pairwise(values, start + half, n - half)


def _numpy_sum(values: list[float]) -> float:
    """The sum `np.sum` gives for a list of floats: the pairwise total added
    to the reduction's initial 0.0. Not `sum()`, whose order differs (and is
    compensated from Python 3.12), so means would drift from numpy's."""
    return 0.0 + _pairwise(values, 0, len(values))


@dataclass(frozen=True)
class ConfusionMatrix:
    """K x K counts; rows are true labels, columns predictions, both in
    schema order."""

    schema: LabelSchema
    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        k = len(self.schema)
        counts = tuple(tuple(int(c) for c in row) for row in self.counts)
        object.__setattr__(self, "counts", counts)
        if len(counts) != k or any(len(row) != k for row in counts):
            raise MetricsError(f"confusion matrix must be {k}x{k}")
        if any(c < 0 for row in counts for c in row):
            raise MetricsError("confusion matrix entries must be non-negative")

    @property
    def total(self) -> int:
        return sum(map(sum, self.counts))

    @property
    def trace(self) -> int:
        return sum(self.counts[i][i] for i in range(len(self.counts)))


def confusion_matrix(y_true, y_pred, schema: LabelSchema) -> ConfusionMatrix:
    """Count (true, predicted) pairs of class codes, the schema positions of
    the labels. The caller maps invalid predictions to a code beforehand."""
    if len(y_true) != len(y_pred):
        raise MetricsError(f"length mismatch: {len(y_true)} truths vs {len(y_pred)} predictions")
    k = len(schema)
    counts = [[0] * k for _ in range(k)]
    for t, p in zip(y_true, y_pred):
        if not (0 <= t < k and 0 <= p < k):
            raise MetricsError(f"class code outside the schema: true {t}, predicted {p}")
        counts[t][p] += 1
    return ConfusionMatrix(schema=schema, counts=counts)


def accuracy(cm: ConfusionMatrix) -> float:
    total = cm.total
    if total == 0:
        raise MetricsError("empty confusion matrix")
    return cm.trace / total


def per_class_prf(cm: ConfusionMatrix) -> dict[str, dict[str, float]]:
    """Per-class precision, recall and F1 with 0/0 -> 0."""
    counts = cm.counts
    out = {}
    for i, label in enumerate(cm.schema.labels):
        tp = counts[i][i]
        predicted = sum(row[i] for row in counts)
        actual = sum(counts[i])
        precision = tp / predicted if predicted > 0 else 0.0
        recall = tp / actual if actual > 0 else 0.0
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
    f1s = [v["f1"] for v in per_class_prf(cm).values()]
    return _numpy_sum(f1s) / len(f1s)


def _dot(a: list[int], b: list[int]) -> float:
    # exact in integers; numpy's float dot of counts is exact below 2**53 too
    return float(sum(x * y for x, y in zip(a, b)))


def mcc(cm: ConfusionMatrix) -> float:
    """Multi-class Matthews correlation (covariance form over the matrix)."""
    s = float(cm.total)
    if s == 0:
        raise MetricsError("empty confusion matrix")
    t = [sum(row) for row in cm.counts]  # true counts
    p = [sum(col) for col in zip(*cm.counts)]  # predicted counts
    cov = cm.trace * s - _dot(t, p)
    denom = math.sqrt(s * s - _dot(p, p)) * math.sqrt(s * s - _dot(t, t))
    if denom == 0:
        return 0.0
    return cov / denom


def _midranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties sharing their average rank."""
    import numpy as np

    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def binary_auc(scores: np.ndarray, positive: np.ndarray) -> float:
    """Mann-Whitney AUC of `scores` ranking positives above negatives."""
    n_pos = int(positive.sum())
    n_neg = len(positive) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricsError("binary AUC needs at least one positive and one negative")
    ranks = _midranks(scores)
    rank_sum = float(ranks[positive].sum())
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def auc_ovr_macro(y_true, scores: np.ndarray) -> float:
    """Macro average of per-class one-vs-rest AUCs.

    `scores` has one row per document and one column per class code. A class
    is skipped when the evaluation set has no positive or no negative example
    for it; at least one class must remain.
    """
    import numpy as np

    if len(y_true) != len(scores):
        raise MetricsError(f"length mismatch: {len(y_true)} truths vs {len(scores)} scores")
    y = np.asarray(y_true)
    per_class, skipped = [], []
    for i in range(scores.shape[1]):
        positive = y == i
        if positive.all() or not positive.any():
            skipped.append(i)
            continue
        per_class.append(binary_auc(scores[:, i], positive))
    if not per_class:
        raise MetricsError(f"all classes skipped for AUC: {skipped}")
    return float(np.mean(per_class))


@dataclass(frozen=True)
class EvalReport:
    """Single-run evaluation of one predictor."""

    acc: float
    macro_f1: float
    mcc: float
    auc: float | None
    confusion: ConfusionMatrix
    per_class: dict[str, dict[str, float]]
    n_invalid_predictions: int = 0

    @property
    def n_items(self) -> int:
        return self.confusion.total

    def to_json_dict(self) -> dict:
        return {
            "acc": self.acc,
            "macro_f1": self.macro_f1,
            "mcc": self.mcc,
            "auc": self.auc,
            "confusion": [list(row) for row in self.confusion.counts],
            "labels": list(self.confusion.schema.labels),
            "per_class": self.per_class,
            "n_invalid_predictions": self.n_invalid_predictions,
            "n_items": self.n_items,
        }


def build_report(
    y_true,
    y_pred,
    schema: LabelSchema,
    scores: np.ndarray | None = None,
    n_invalid: int = 0,
) -> EvalReport:
    """Assemble the full report from class codes; AUC only when scores are given.

    `scores` is a predictor's (n, K) probability array. Label-only
    predictors pass scores=None and get auc=None.
    """
    cm = confusion_matrix(y_true, y_pred, schema)
    auc = None
    if scores is not None:
        if scores.ndim != 2 or scores.shape[1] != len(schema):
            raise MetricsError("score vector length does not match schema")
        auc = auc_ovr_macro(y_true, scores)
    return EvalReport(
        acc=accuracy(cm),
        macro_f1=macro_f1(cm),
        mcc=mcc(cm),
        auc=auc,
        confusion=cm,
        per_class=per_class_prf(cm),
        n_invalid_predictions=n_invalid,
    )


@dataclass(frozen=True)
class RunAggregate:
    """Mean and sample standard deviation of a metric across repeats."""

    metric: str
    values: tuple[float, ...] = field(default_factory=tuple)
    mean: float = 0.0
    std: float | None = None

    def format(self, digits: int = 4) -> str:
        if self.std is None:
            return f"{self.mean:.{digits}f}"
        return f"{self.mean:.{digits}f}±{self.std:.{digits}f}"

    def to_json_dict(self) -> dict:
        return {
            "metric": self.metric,
            "values": list(self.values),
            "mean": self.mean,
            "std": self.std,
        }


def aggregate_runs(values: list[float], metric: str = "") -> RunAggregate:
    """Mean and (n-1) standard deviation; std is undefined for one value."""
    if not values:
        raise MetricsError("no values to aggregate")
    xs = [float(v) for v in values]
    n = len(xs)
    mean = _numpy_sum(xs) / n
    # np.std(ddof=1): squared deviations from that mean, summed the same way
    std = math.sqrt(_numpy_sum([(x - mean) * (x - mean) for x in xs]) / (n - 1)) if n >= 2 else None
    return RunAggregate(metric=metric, values=tuple(values), mean=mean, std=std)
