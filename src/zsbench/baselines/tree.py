"""CART trees: greedy Gini splits on feature thresholds, one grower for DT and RF.

A random forest grows `n_trees` trees, each on a bootstrap sample of the
training rows with floor(sqrt(V)) randomly drawn candidate features per
split. Each tree draws its own RNG from (seed, tree index), so training
order or parallel scheduling cannot change the result. The decision tree
is the one-tree forest: no bootstrap, every feature considered at every
split.

Split ties are broken by lowest feature index, then lowest threshold, so
trees are deterministic. A node splits only when the weighted child
impurity strictly improves on the parent's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from ..dataset import LabelSchema
from .common import TrainingError, check_training_input, normalize_rows


@dataclass
class TreeNode:
    distribution: np.ndarray  # class frequencies at this node, normalized
    n_samples: int
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


def leaf_distributions(root: TreeNode, xd: np.ndarray) -> np.ndarray:
    """Distribution of the leaf each dense row lands in, one row per input row."""
    out = np.empty((xd.shape[0], len(root.distribution)))
    pending = [(root, np.arange(xd.shape[0]))]
    while pending:
        node, rows = pending.pop()
        if node.is_leaf:
            out[rows] = node.distribution
            continue
        left = xd[rows, node.feature] <= node.threshold
        pending += [(node.left, rows[left]), (node.right, rows[~left])]
    return out


def _gini(counts: np.ndarray) -> float:
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    return float(1.0 - (p * p).sum())


def _best_split(
    xd: np.ndarray,
    y: np.ndarray,
    rows: np.ndarray,
    feature_ids: np.ndarray,
    n_classes: int,
    min_leaf: int,
) -> tuple[int, float, float] | None:
    """Best (feature, threshold, weighted child gini) over the candidates.

    Thresholds are midpoints between consecutive distinct values; samples
    with value <= threshold go left.
    """
    n = len(rows)
    labels = y[rows]
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), labels] = 1.0

    best: tuple[float, int, float] | None = None
    for f in feature_ids:
        values = xd[rows, f]
        # constant columns (common with sparse tf-idf) cannot split
        if values.min() == values.max():
            continue
        order = np.argsort(values, kind="stable")
        sorted_vals = values[order]
        cum = np.cumsum(onehot[order], axis=0)

        # candidate boundaries: positions where the value strictly increases
        boundary = np.flatnonzero(sorted_vals[:-1] < sorted_vals[1:]) + 1
        boundary = boundary[(boundary >= min_leaf) & (n - boundary >= min_leaf)]
        if boundary.size == 0:
            continue

        left = cum[boundary - 1]
        right = cum[-1] - left
        n_left = boundary.astype(float)
        n_right = n - n_left
        gini_left = 1.0 - ((left / n_left[:, None]) ** 2).sum(axis=1)
        gini_right = 1.0 - ((right / n_right[:, None]) ** 2).sum(axis=1)
        weighted = (n_left * gini_left + n_right * gini_right) / n

        pos = int(np.argmin(weighted))
        score = float(weighted[pos])
        if best is None or score < best[0] - 1e-12:
            b = boundary[pos]
            threshold = float((sorted_vals[b - 1] + sorted_vals[b]) / 2.0)
            best = (score, int(f), threshold)
    if best is None:
        return None
    return best[1], best[2], best[0]


def _grow(
    xd: np.ndarray,
    y: np.ndarray,
    rows: np.ndarray,
    n_classes: int,
    depth: int,
    max_depth: int,
    min_leaf: int,
    feature_picker,
) -> TreeNode:
    counts = np.bincount(y[rows], minlength=n_classes).astype(float)
    node = TreeNode(distribution=counts / counts.sum(), n_samples=len(rows))

    parent_gini = _gini(counts)
    if depth >= max_depth or parent_gini == 0.0 or len(rows) < 2 * min_leaf:
        return node
    split = _best_split(xd, y, rows, feature_picker(), n_classes, min_leaf)
    if split is None:
        return node
    feature, threshold, child_gini = split
    if child_gini >= parent_gini - 1e-12:
        return node

    mask = xd[rows, feature] <= threshold
    node.feature = feature
    node.threshold = threshold
    node.left = _grow(xd, y, rows[mask], n_classes, depth + 1, max_depth, min_leaf, feature_picker)
    node.right = _grow(xd, y, rows[~mask], n_classes, depth + 1, max_depth, min_leaf, feature_picker)
    return node


class ForestModel:
    """CART trees whose leaf distributions are averaged; DT is the one-tree case."""

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
    split; "all" considers every feature.
    """
    if n_trees < 1:
        raise TrainingError(f"n_trees must be >= 1, got {n_trees}")
    if feature_subsample not in ("sqrt", "all"):
        raise TrainingError(f"feature_subsample must be 'sqrt' or 'all', got {feature_subsample!r}")
    if max_depth < 1:
        raise TrainingError(f"max_depth must be >= 1, got {max_depth}")
    if min_leaf < 1:
        raise TrainingError(f"min_leaf must be >= 1, got {min_leaf}")
    y = check_training_input(x, labels, schema)
    xd = x.toarray()
    n, v = xd.shape
    m = max(1, math.isqrt(v))
    all_ids = np.arange(v)

    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng([seed, t])
        rows = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        if feature_subsample == "sqrt":
            picker = lambda rng=rng: np.sort(rng.choice(v, size=m, replace=False))
        else:
            picker = lambda: all_ids
        trees.append(_grow(xd, y, rows, len(schema), 0, max_depth, min_leaf, picker))
    return ForestModel(schema, trees)


def train_dt(
    x: sparse.csr_matrix,
    labels: list[str],
    schema: LabelSchema,
    max_depth: int = 32,
    min_leaf: int = 1,
) -> ForestModel:
    """The one-tree forest: every training row, every feature at each split."""
    return train_rf(
        x, labels, schema, n_trees=1, max_depth=max_depth, min_leaf=min_leaf,
        feature_subsample="all", bootstrap=False,
    )
