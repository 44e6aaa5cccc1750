"""Multinomial Naive Bayes over TF-IDF weights, with Lidstone smoothing."""

from __future__ import annotations

import numpy as np
from scipy import sparse

from ..dataset import LabelSchema
from .common import TrainingError, check_training_input, normalize_rows


class MnbModel:
    """Per-class log-priors and per-term log-likelihoods."""

    def __init__(self, schema: LabelSchema, log_priors: np.ndarray, log_likelihoods: np.ndarray):
        self.schema = schema
        self.log_priors = log_priors
        self.log_likelihoods = log_likelihoods  # shape (K, V)

    def predict_proba(self, x: sparse.csr_matrix) -> np.ndarray:
        log_post = self.log_priors + x @ self.log_likelihoods.T
        log_post -= log_post.max(axis=1, keepdims=True)
        return normalize_rows(np.exp(log_post))


def train_mnb(
    x: sparse.csr_matrix,
    labels: list[str],
    schema: LabelSchema,
    alpha: float = 1.0,
) -> MnbModel:
    """Fit class priors and smoothed per-term likelihoods.

    likelihood(t | c) = (sum of t's weights in class c + alpha)
                      / (sum of all weights in class c + alpha * V)
    """
    if alpha <= 0:
        raise TrainingError(f"alpha must be positive, got {alpha}")
    y = check_training_input(x, labels, schema, require_all_classes=True)
    n, v = x.shape
    k = len(schema)

    log_priors = np.zeros(k)
    log_likelihoods = np.zeros((k, v))
    for c in range(k):
        rows = x[np.flatnonzero(y == c)]
        log_priors[c] = np.log(rows.shape[0] / n)
        term_sums = np.asarray(rows.sum(axis=0)).ravel()
        log_likelihoods[c] = np.log(term_sums + alpha) - np.log(term_sums.sum() + alpha * v)
    return MnbModel(schema, log_priors, log_likelihoods)
