"""k-nearest-neighbour classifier with cosine similarity voting."""

from __future__ import annotations

import numpy as np
from scipy import sparse

from ..dataset import LabelSchema
from .common import TrainingError, check_training_input, normalize_rows

# query rows per similarity block: bounds the dense (block x n_train) array
_BLOCK_ROWS = 64


class KnnModel:
    """Lazy learner: stores the training matrix verbatim.

    Similarity ties are broken by training-row order so predictions are
    reproducible; a zero vector on either side has similarity 0.
    """

    def __init__(self, schema: LabelSchema, x: sparse.csr_matrix, y: np.ndarray, k: int):
        self.schema = schema
        self.x = x
        self.y = y
        self.k = k
        norms = np.sqrt(np.asarray(x.multiply(x).sum(axis=1)).ravel())
        self._inv_norms = np.zeros_like(norms)
        nonzero = norms > 0
        self._inv_norms[nonzero] = 1.0 / norms[nonzero]

    def predict_proba(self, x: sparse.csr_matrix) -> np.ndarray:
        votes = np.zeros((x.shape[0], len(self.schema)))
        for start in range(0, x.shape[0], _BLOCK_ROWS):
            block = x[start : start + _BLOCK_ROWS]
            norms = np.sqrt(block.multiply(block) @ np.ones(block.shape[1]))
            sims = (self.x @ block.T).T.toarray() * self._inv_norms
            nonzero = norms > 0
            sims[nonzero] /= norms[nonzero, None]
            sims[~nonzero] = 0.0
            nearest = self.y[np.argsort(-sims, axis=1, kind="stable")[:, : self.k]]
            rows = votes[start : start + _BLOCK_ROWS]
            for label in range(rows.shape[1]):
                rows[:, label] = (nearest == label).sum(axis=1)
        return normalize_rows(votes / self.k)


def train_knn(x: sparse.csr_matrix, labels: list[str], schema: LabelSchema, k: int = 5) -> KnnModel:
    y = check_training_input(x, labels, schema)
    if k < 1:
        raise TrainingError(f"k must be positive, got {k}")
    if k % 2 == 0:
        raise TrainingError(f"k must be odd, got {k}")
    if k > x.shape[0]:
        raise TrainingError(f"k={k} exceeds training set size {x.shape[0]}")
    return KnnModel(schema, x, y, k)
