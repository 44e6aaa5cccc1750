"""Reference k-NN prediction, kept as an oracle for `KnnModel.predict_proba`.

This is the prediction as it was before exact top-k selection: every query
block's similarity row is stable-argsorted in full, and the first k entries
vote. Both must give bit-identical probabilities.
"""

from __future__ import annotations

import numpy as np

from zsbench.baselines.common import normalize_rows

_BLOCK_ROWS = 64


def predict_proba(model, x) -> np.ndarray:
    votes = np.zeros((x.shape[0], len(model.schema)))
    for start in range(0, x.shape[0], _BLOCK_ROWS):
        block = x[start : start + _BLOCK_ROWS]
        norms = np.sqrt(block.multiply(block) @ np.ones(block.shape[1]))
        sims = (model.x @ block.T).T.toarray() * model._inv_norms
        nonzero = norms > 0
        sims[nonzero] /= norms[nonzero, None]
        sims[~nonzero] = 0.0
        nearest = model.y[np.argsort(-sims, axis=1, kind="stable")[:, : model.k]]
        rows = votes[start : start + _BLOCK_ROWS]
        for label in range(rows.shape[1]):
            rows[:, label] = (nearest == label).sum(axis=1)
    return normalize_rows(votes / model.k)
