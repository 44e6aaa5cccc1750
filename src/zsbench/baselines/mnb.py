"""Multinomial Naive Bayes over TF-IDF weights, with Lidstone smoothing."""

from __future__ import annotations

import itertools

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


def check_hyperparameters(alpha: float) -> None:
    if not alpha > 0:  # NaN too
        raise TrainingError(f"alpha must be positive, got {alpha}")


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
    check_hyperparameters(alpha)
    y = check_training_input(x, labels, schema, require_all_classes=True)
    n, v = x.shape
    k = len(schema)
    # row c marks class c's training rows in ascending order, so one product adds
    # them in a per-class column sum's order; built only from calls runs already
    # make, as a first np.bincount or np.cumsum raised a no-tree run's peak RSS
    rows = [np.flatnonzero(y == c) for c in range(k)]
    sizes = [len(r) for r in rows]
    indptr = [0, *itertools.accumulate(sizes)]
    members = sparse.csr_matrix((np.ones(n), np.concatenate(rows), indptr), shape=(k, n))
    term_sums = (members @ x).toarray()
    log_priors = np.log(np.array(sizes) / n)
    log_likelihoods = np.log(term_sums + alpha) - np.log(
        term_sums.sum(axis=1, keepdims=True) + alpha * v
    )
    return MnbModel(schema, log_priors, log_likelihoods)
