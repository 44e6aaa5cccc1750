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
copy. Training converts it to CSC once.

All trees grow in lockstep. Each keeps its own depth-first stack and RNG
and reaches its nodes in the pre-order of a recursive grower, so it draws
the same candidates and grows the same tree. A step takes the next node of
every tree and scores them together with `splitter.best_splits`, at most
`_SEARCH_NODES` per search. Each tree labels every row it drew with the
leaf that holds it, and a split relabels the rows that leave its label.

A forest is one set of node arrays (feature, threshold, left, n_samples
and value), not an object per node. Node t is tree t's root; children are
made in pairs, so a right child is `left + 1`, and each search batch
appends one block of them. Prediction routes rows tree by tree, node by
node, by scattering the node's feature column into a dense vector.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse

from ..dataset import LabelSchema
from .common import TrainingError, check_training_input, normalize_rows
from .splitter import best_splits, sort_columns


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


# nodes scored by one split search; bounds the search's temporaries
_SEARCH_NODES = 50


def _new_nodes(counts: np.ndarray, depth: np.ndarray, max_depth: int, min_leaf: int):
    """Distribution, sample count, gini and whether it may split, of each row of class counts."""
    n = counts.sum(axis=1)
    distribution = counts / n[:, None]
    gini = 1.0 - (distribution * distribution).sum(axis=1)
    may_split = (depth < max_depth) & (gini != 0.0) & (n >= 2 * min_leaf)
    return distribution, n, gini, may_split


def _grow_forest(
    xc: sparse.csc_matrix,
    y: np.ndarray,
    weight: np.ndarray,
    n_classes: int,
    max_depth: int,
    min_leaf: int,
    pickers: list,
) -> tuple[np.ndarray, ...]:
    """Grow tree t on the rows r with weight[t, r] > 0, drawn that often, all
    trees in lockstep; the forest's node arrays (feature, threshold, left,
    n_samples, value).

    label[t, r] is the label of the leaf of tree t that holds row r, -1 for
    a row the tree did not draw. A split hands its node's label to the child
    on the side of the split feature's zeros and labels the other child with
    its node number, so it relabels only rows whose stored value sends them
    away from the zeros. Each tree keeps a depth-first stack of the nodes it
    may still split. A step pops the next node of every tree and draws its
    candidates from the tree's picker.
    """
    n_trees = len(weight)
    counts = np.array([np.bincount(y, weights=w, minlength=n_classes) for w in weight])
    label = np.where(weight > 0, np.arange(n_trees, dtype=np.int32)[:, None], np.int32(-1))
    value, n, gini, may_split = _new_nodes(counts, np.zeros(n_trees), max_depth, min_leaf)
    # node t is tree t's root; each search batch adds a block of child nodes
    # and a record (parents, feature, threshold, first child)
    n_nodes, values, sizes, records = n_trees, [value], [n], []
    # a stack entry: (node, label, depth, gini, class counts)
    stacks = [[(t, t, 0, gini[t], counts[t])] if may_split[t] else [] for t in range(n_trees)]
    xs = sort_columns(xc)

    while current := [(t, stack.pop()) for t, stack in enumerate(stacks) if stack]:
        for first in range(0, len(current), _SEARCH_NODES):
            trees, entries = zip(*current[first : first + _SEARCH_NODES])
            nodes, labels, *fields = zip(*entries)
            depth, gini, counts = map(np.array, fields)
            candidates = [pickers[t]() for t in trees]
            found = best_splits(
                xs, y, label, weight, np.column_stack((trees, labels)), np.concatenate(candidates),
                np.cumsum([0] + [len(c) for c in candidates]), counts, gini, min_leaf,
            )
            if found is None:
                continue
            split, feature, threshold, left, moved_cells, moved_split = found

            # the i-th split node's children are nodes n_nodes + 2i and n_nodes + 2i + 1;
            # the one away from the zeros, n_nodes + 2i + zero_left, takes its number as label
            zero_left = (0.0 <= threshold).astype(np.intp)
            away = 2 * np.arange(len(split)) + zero_left
            np.put(label, moved_cells, n_nodes + away[moved_split])
            child_counts = np.empty((2 * len(split), n_classes))
            child_counts[0::2], child_counts[1::2] = left, counts[split] - left
            value, n, child_gini, child_may_split = _new_nodes(
                child_counts, np.repeat(depth[split] + 1, 2), max_depth, min_leaf
            )
            values.append(value)
            sizes.append(n)
            records.append((np.take(nodes, split), feature, threshold, n_nodes))
            for i, (j, a) in enumerate(zip(split.tolist(), away.tolist())):
                # right first, so the tree grows the left subtree first
                for c in (2 * i + 1, 2 * i):
                    if child_may_split[c]:
                        stacks[trees[j]].append((
                            n_nodes + c, n_nodes + c if c == a else labels[j],
                            depth[j] + 1, child_gini[c], child_counts[c],
                        ))
            n_nodes += 2 * len(split)

    feature = np.full(n_nodes, -1, dtype=np.int32)
    threshold = np.zeros(n_nodes)
    left = np.zeros(n_nodes, dtype=np.int32)
    for parents, f, t, first in records:
        feature[parents], threshold[parents] = f, t
        left[parents] = np.arange(first, first + 2 * len(parents), 2)
    return feature, threshold, left, np.concatenate(sizes).astype(np.int32), np.concatenate(values)


class ForestModel:
    """CART trees whose leaf distributions are averaged; DT is the one-tree case.

    Inner node i sends a row to node left[i] when its feature[i] value is
    <= threshold[i], else to left[i] + 1; feature[i] is -1 at a leaf. value[i]
    is node i's class distribution, n_samples[i] its bootstrap-weighted rows.
    """

    def __init__(self, schema: LabelSchema, n_trees, feature, threshold, left, n_samples, value):
        self.schema, self.n_trees = schema, n_trees
        self.feature, self.threshold, self.left = feature, threshold, left
        self.n_samples, self.value = n_samples, value

    def _leaf_distributions(self, tree: int, xc: sparse.csc_matrix) -> np.ndarray:
        """Distribution of the leaf of `tree` each row of xc lands in, one row per input row."""
        out = np.empty((xc.shape[0], self.value.shape[1]))
        pending = [(tree, np.arange(xc.shape[0]))]
        while pending:
            node, rows = pending.pop()
            feature = self.feature[node]
            if feature < 0:
                out[rows] = self.value[node]
                continue
            left = _column(xc, feature)[rows] <= self.threshold[node]
            child = self.left[node]
            pending += [(child, rows[left]), (child + 1, rows[~left])]
        return out

    def predict_proba(self, x: sparse.csr_matrix) -> np.ndarray:
        xc = _csc(x)
        total = np.zeros((xc.shape[0], len(self.schema)))
        for tree in range(self.n_trees):
            total += self._leaf_distributions(tree, xc)
        return normalize_rows(total / self.n_trees)


def check_hyperparameters(
    max_depth: int, min_leaf: int, n_trees: int = 1, feature_subsample: str = "all"
) -> None:
    """The range checks of both trainers; the last two default to the decision tree's."""
    if n_trees < 1:
        raise TrainingError(f"n_trees must be >= 1, got {n_trees}")
    if feature_subsample not in ("sqrt", "all"):
        raise TrainingError(f"feature_subsample must be 'sqrt' or 'all', got {feature_subsample!r}")
    if max_depth < 1:
        raise TrainingError(f"max_depth must be >= 1, got {max_depth}")
    if min_leaf < 1:
        raise TrainingError(f"min_leaf must be >= 1, got {min_leaf}")


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
    check_hyperparameters(max_depth, min_leaf, n_trees, feature_subsample)
    y = check_training_input(x, labels, schema)
    xc = _csc(x)
    n, v = xc.shape
    m = max(1, math.isqrt(v))
    all_ids = np.arange(v)

    rngs = [np.random.default_rng([seed, t]) for t in range(n_trees)]
    # how often each tree drew each row
    weight = np.ones((n_trees, n), dtype=np.int32)
    if bootstrap:
        for t, rng in enumerate(rngs):
            weight[t] = np.bincount(rng.integers(0, n, size=n), minlength=n)
    if feature_subsample == "sqrt":
        pickers = [lambda rng=rng: np.sort(rng.choice(v, size=m, replace=False)) for rng in rngs]
    else:
        pickers = [lambda: all_ids] * n_trees
    nodes = _grow_forest(xc, y, weight, len(schema), max_depth, min_leaf, pickers)
    return ForestModel(schema, n_trees, *nodes)


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
