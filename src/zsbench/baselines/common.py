"""Shared training checks and score normalisation for the from-scratch classifiers."""

from __future__ import annotations

import numpy as np
from scipy import sparse

from ..dataset import LabelSchema


class TrainingError(ValueError):
    """Raised when training input violates a classifier's contract."""


def normalize_rows(scores: np.ndarray) -> np.ndarray:
    """Scale each row of an (n, K) score array to sum to 1.

    A row whose total is zero, negative or non-finite becomes uniform.
    """
    totals = scores.sum(axis=1, keepdims=True)
    valid = np.isfinite(totals) & (totals > 0)
    return np.where(valid, scores / np.where(valid, totals, 1.0), 1.0 / scores.shape[1])


def check_training_input(
    x: sparse.csr_matrix,
    labels: list[str],
    schema: LabelSchema,
    require_all_classes: bool = False,
) -> np.ndarray:
    """Validate a training set and return its encoded labels.

    `require_all_classes` is for trainers whose math needs every class
    observed (MNB priors); trees and neighbours cope with absent classes.
    """
    if x.shape[0] == 0:
        raise TrainingError("empty training set")
    if x.shape[0] != len(labels):
        raise TrainingError(f"{x.shape[0]} feature rows but {len(labels)} labels")
    try:
        y = np.array(schema.codes(labels), dtype=np.intp)
    except KeyError as exc:
        raise TrainingError(f"label {exc.args[0]!r} not in schema") from exc
    if require_all_classes:
        present = set(y.tolist())
        missing = [lab for i, lab in enumerate(schema.labels) if i not in present]
        if missing:
            raise TrainingError(f"classes absent from training set: {missing}")
    return y
