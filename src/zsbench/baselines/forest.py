"""Random forest: bootstrapped Gini trees with per-split feature sampling.

Each tree draws its own RNG from (seed, tree index), so training order or
parallel scheduling cannot change the result.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from ..dataset import LabelSchema
from .common import TrainingError, check_training_input, normalize_rows
from .tree import TreeNode, grow_tree, leaf_distributions, sqrt_feature_count


class ForestModel:
    name = "rf"

    def __init__(self, schema: LabelSchema, trees: list[TreeNode]):
        self.schema = schema
        self.trees = trees

    def predict_proba(self, x: sparse.csr_matrix) -> np.ndarray:
        xd = x.toarray()
        total = np.zeros((xd.shape[0], len(self.schema)))
        for root in self.trees:
            total += leaf_distributions(root, xd)
        return normalize_rows(total / len(self.trees))


def train_rf(
    x: sparse.csr_matrix,
    labels: list[str],
    schema: LabelSchema,
    n_trees: int = 100,
    max_depth: int = 32,
    min_leaf: int = 1,
    feature_subsample: str = "sqrt",
    bootstrap: bool = True,
    seed: int = 0,
) -> ForestModel:
    """Train `n_trees` trees on bootstrap samples.

    feature_subsample "sqrt" considers floor(sqrt(V)) random features per
    split; "all" considers every feature (with bootstrap off and a single
    tree this degenerates to the plain decision tree).
    """
    if n_trees < 1:
        raise TrainingError(f"n_trees must be >= 1, got {n_trees}")
    if feature_subsample not in ("sqrt", "all"):
        raise TrainingError(f"feature_subsample must be 'sqrt' or 'all', got {feature_subsample!r}")
    if max_depth < 1:
        raise TrainingError(f"max_depth must be >= 1, got {max_depth}")
    y = check_training_input(x, labels, schema)
    xd = x.toarray()
    n, v = xd.shape
    m = sqrt_feature_count(v) if feature_subsample == "sqrt" else v

    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng([seed, t])
        rows = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        if feature_subsample == "sqrt":
            picker = lambda rng=rng: np.sort(rng.choice(v, size=m, replace=False))
        else:
            picker = lambda ids=np.arange(v): ids
        trees.append(grow_tree(xd, y, rows, schema, max_depth, min_leaf, picker))
    return ForestModel(schema, trees)
