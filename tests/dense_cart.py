"""Reference CART grower on a dense matrix, kept as an oracle for the sparse one.

This is the split search and grower `zsbench.baselines.tree` used before it
searched CSC columns: every candidate feature is argsorted over the node's
rows, zeros included. `dense_forest` draws its RNG exactly as `train_rf`
does, so both must grow the same trees node for node, and
`dense_predict_proba` routes dense rows as `ForestModel.predict_proba` did.
Its trees are linked `TreeNode`s; `forest_trees` rebuilds a `ForestModel`'s
node arrays into the same shape, so the two can be compared node for node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from zsbench.baselines.common import normalize_rows


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


def forest_trees(model) -> list[TreeNode]:
    """The trees of a ForestModel as linked nodes, one root per tree."""

    def build(i: int) -> TreeNode:
        node = TreeNode(model.value[i], int(model.n_samples[i]))
        if model.feature[i] >= 0:
            node.feature, node.threshold = int(model.feature[i]), float(model.threshold[i])
            node.left, node.right = build(int(model.left[i])), build(int(model.left[i]) + 1)
        return node

    return [build(t) for t in range(model.n_trees)]


def _gini(counts: np.ndarray) -> float:
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    return float(1.0 - (p * p).sum())


def _best_split(xd, y, rows, feature_ids, n_classes, min_leaf):
    n = len(rows)
    labels = y[rows]
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), labels] = 1.0

    best = None
    for f in feature_ids:
        values = xd[rows, f]
        if values.min() == values.max():
            continue
        order = np.argsort(values, kind="stable")
        sorted_vals = values[order]
        cum = np.cumsum(onehot[order], axis=0)

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


def _grow(xd, y, rows, n_classes, depth, max_depth, min_leaf, feature_picker):
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


def dense_forest(
    xd: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    n_trees: int,
    max_depth: int,
    min_leaf: int,
    feature_subsample: str,
    bootstrap: bool,
    seed: int,
) -> list[TreeNode]:
    """The trees `train_rf` grows, from a dense matrix and encoded labels."""
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
        trees.append(_grow(xd, y, rows, n_classes, 0, max_depth, min_leaf, picker))
    return trees


def _leaf_distributions(root: TreeNode, xd: np.ndarray) -> np.ndarray:
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


def dense_predict_proba(trees: list[TreeNode], xd: np.ndarray) -> np.ndarray:
    """The forest's averaged leaf distributions for the rows of a dense matrix."""
    total = np.zeros((xd.shape[0], len(trees[0].distribution)))
    for root in trees:
        total += _leaf_distributions(root, xd)
    return normalize_rows(total / len(trees))
