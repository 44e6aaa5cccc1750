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

Training and prediction work on the sparse matrix and never build a dense
copy. Training converts it to CSC once. At each node the node's rows, which
repeat under bootstrap, become per-row weights, and the stored entries of
every candidate feature that fall in the node are gathered in one pass.
A feature's implicit zeros are never sorted: they enter as one zero-block
entry with value 0, whose class counts are the node's counts minus those of
the feature's stored entries, and which is left out when it holds no row.
Negative values and stored zeros therefore split exactly as in a dense
search. One lexsort by (feature, value) and one cumsum give the class
counts left of every boundary, a point where the value strictly increases
within a feature, and every boundary is scored at once; only the final
scan over the candidates' best scores is a Python loop. To partition a node
or route rows at prediction, the chosen feature's column is scattered into
a dense vector with one value per row.
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


def _csc(x: sparse.csr_matrix) -> sparse.csc_matrix:
    """A CSC copy of x with sorted indices and no duplicate entries."""
    xc = sparse.csc_matrix(x, copy=True)
    xc.sum_duplicates()
    return xc


def _column(xc: sparse.csc_matrix, feature: int) -> np.ndarray:
    """Column `feature` of a canonical CSC matrix as one value per row."""
    col = np.zeros(xc.shape[0], dtype=xc.dtype)
    lo, hi = xc.indptr[feature], xc.indptr[feature + 1]
    col[xc.indices[lo:hi]] = xc.data[lo:hi]
    return col


def leaf_distributions(root: TreeNode, xc: sparse.csc_matrix) -> np.ndarray:
    """Distribution of the leaf each row of xc lands in, one row per input row."""
    out = np.empty((xc.shape[0], len(root.distribution)))
    pending = [(root, np.arange(xc.shape[0]))]
    while pending:
        node, rows = pending.pop()
        if node.is_leaf:
            out[rows] = node.distribution
            continue
        left = _column(xc, node.feature)[rows] <= node.threshold
        pending += [(node.left, rows[left]), (node.right, rows[~left])]
    return out


def _gini(counts: np.ndarray) -> float:
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    return float(1.0 - (p * p).sum())


def _best_split(
    xc: sparse.csc_matrix,
    y: np.ndarray,
    rows: np.ndarray,
    feature_ids: np.ndarray,
    counts: np.ndarray,
    min_leaf: int,
) -> tuple[int, float, float] | None:
    """Best (feature, threshold, weighted child gini) over the candidates.

    `rows` may repeat a row (bootstrap) and `counts` are its class counts.
    Thresholds are midpoints between consecutive distinct values of a
    feature among the node's rows; rows with value <= threshold go left.
    """
    n = len(rows)
    n_classes = len(counts)
    weight = np.bincount(rows, minlength=xc.shape[0])

    # the stored entries of every candidate column that fall in the node;
    # seg numbers the candidate each entry belongs to
    begin = xc.indptr[feature_ids]
    lengths = xc.indptr[feature_ids + 1] - begin
    seg = np.repeat(np.arange(len(feature_ids)), lengths)
    pos = np.arange(lengths.sum()) + np.repeat(begin - (np.cumsum(lengths) - lengths), lengths)
    w = weight[xc.indices[pos]]
    inside = w > 0
    seg, pos, w = seg[inside], pos[inside], w[inside]
    labels = y[xc.indices[pos]]

    # each feature's zeros are one entry: what its stored entries leave over
    zero = counts - np.bincount(
        seg * n_classes + labels, weights=w, minlength=len(feature_ids) * n_classes
    ).reshape(-1, n_classes)
    zero_seg = np.flatnonzero(zero.sum(axis=1) > 0)

    class_w = np.zeros((len(pos) + len(zero_seg), n_classes))
    class_w[np.arange(len(pos)), labels] = w
    class_w[len(pos):] = zero[zero_seg]
    seg = np.concatenate([seg, zero_seg])
    values = np.concatenate([xc.data[pos], np.zeros(len(zero_seg), dtype=xc.dtype)])
    order = np.lexsort((values, seg))
    seg, values = seg[order], values[order]
    cum = np.zeros((len(order) + 1, n_classes))
    np.cumsum(class_w[order], axis=0, out=cum[1:])

    # boundary b splits sorted entries ..b | b+1.. where the value increases
    boundary = np.flatnonzero((seg[:-1] == seg[1:]) & (values[:-1] < values[1:]))
    left = cum[boundary + 1] - cum[np.searchsorted(seg, seg[boundary])]
    n_left = left.sum(axis=1)
    legal = (n_left >= min_leaf) & (n - n_left >= min_leaf)
    boundary, left, n_left = boundary[legal], left[legal], n_left[legal]
    if boundary.size == 0:
        return None

    right = counts - left
    n_right = n - n_left
    gini_left = 1.0 - ((left / n_left[:, None]) ** 2).sum(axis=1)
    gini_right = 1.0 - ((right / n_right[:, None]) ** 2).sum(axis=1)
    weighted = (n_left * gini_left + n_right * gini_right) / n

    # the best score of each candidate, scanned in ascending feature order
    seg_of = seg[boundary]
    runs = np.flatnonzero(np.concatenate(([True], seg_of[1:] != seg_of[:-1])))
    best, best_run = math.inf, -1
    for k, score in enumerate(np.minimum.reduceat(weighted, runs).tolist()):
        if score < best - 1e-12:
            best, best_run = score, k
    # that candidate's first boundary reaching its best score has the lowest threshold
    lo = runs[best_run]
    hi = runs[best_run + 1] if best_run + 1 < len(runs) else len(weighted)
    b = boundary[lo + int(np.argmin(weighted[lo:hi]))]
    threshold = float((values[b] + values[b + 1]) / 2.0)
    return int(feature_ids[seg[b]]), threshold, best


def _grow(
    xc: sparse.csc_matrix,
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
    split = _best_split(xc, y, rows, feature_picker(), counts, min_leaf)
    if split is None:
        return node
    feature, threshold, child_gini = split
    if child_gini >= parent_gini - 1e-12:
        return node

    mask = _column(xc, feature)[rows] <= threshold
    node.feature = feature
    node.threshold = threshold
    node.left = _grow(xc, y, rows[mask], n_classes, depth + 1, max_depth, min_leaf, feature_picker)
    node.right = _grow(xc, y, rows[~mask], n_classes, depth + 1, max_depth, min_leaf, feature_picker)
    return node


class ForestModel:
    """CART trees whose leaf distributions are averaged; DT is the one-tree case."""

    def __init__(self, schema: LabelSchema, trees: list[TreeNode]):
        self.schema = schema
        self.trees = trees

    def predict_proba(self, x: sparse.csr_matrix) -> np.ndarray:
        xc = _csc(x)
        total = np.zeros((xc.shape[0], len(self.schema)))
        for root in self.trees:
            total += leaf_distributions(root, xc)
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
    xc = _csc(x)
    n, v = xc.shape
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
        trees.append(_grow(xc, y, rows, len(schema), 0, max_depth, min_leaf, picker))
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
