"""k-nearest-neighbour classifier with cosine similarity voting."""

from __future__ import annotations

import numpy as np
from scipy import sparse

from ..dataset import LabelSchema
from .common import TrainingError, check_training_input, normalize_rows

# query rows per similarity block: bounds the dense (block x n_train) array,
# which is alive together with predict's transposed copy of the training matrix
_BLOCK_ROWS = 32


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
        xt = self.x.T.tocsr()
        for start in range(0, x.shape[0], _BLOCK_ROWS):
            nearest = self.y[self._nearest(x[start : start + _BLOCK_ROWS], xt)]
            rows = votes[start : start + _BLOCK_ROWS]
            for label in range(rows.shape[1]):
                rows[:, label] = (nearest == label).sum(axis=1)
        return normalize_rows(votes / self.k)

    def _nearest(self, block: sparse.csr_matrix, xt: sparse.csr_matrix) -> np.ndarray:
        """(rows, k) training rows of each query's k most similar, in no order.

        `block @ xt` sums each similarity over the shared features in ascending
        order, as `self.x @ block.T` does. A block's dense similarities die on
        return, before the next block's.
        """
        k, n_train = self.k, self.x.shape[0]
        norms = np.sqrt(block.multiply(block) @ np.ones(block.shape[1]))[:, None]
        sims = (block @ xt).toarray()
        sims *= self._inv_norms
        nonzero = norms > 0
        np.divide(sims, norms, out=sims, where=nonzero)
        if not nonzero.all():  # a query whose norm underflows to 0 is a zero vector
            sims[~nonzero[:, 0]] = 0.0
        nearest = np.argpartition(sims, n_train - k, axis=1)[:, n_train - k :]
        kth = sims[np.arange(len(sims))[:, None], nearest].min(axis=1, keepdims=True)
        # where the k-th value is tied outside that set, the set is the lowest
        # training rows among the ties, as a stable sort orders them
        tied = np.flatnonzero(np.count_nonzero(sims >= kth, axis=1) > k)
        if len(tied):
            nearest[tied] = np.argsort(-sims[tied], axis=1, kind="stable")[:, :k]
        return nearest


def check_hyperparameters(k: int) -> None:
    if k < 1:
        raise TrainingError(f"k must be positive, got {k}")
    if k % 2 == 0:
        raise TrainingError(f"k must be odd, got {k}")


def train_knn(x: sparse.csr_matrix, labels: list[str], schema: LabelSchema, k: int = 5) -> KnnModel:
    check_hyperparameters(k)
    y = check_training_input(x, labels, schema)
    if k > x.shape[0]:
        raise TrainingError(f"k={k} exceeds training set size {x.shape[0]}")
    return KnnModel(schema, x, y, k)
