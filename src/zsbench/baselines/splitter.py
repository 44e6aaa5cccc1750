"""Batched CART split search on CSC columns whose entries are sorted by value.

`best_splits` scores a batch of nodes, possibly of different trees, in one
vectorised pass. For each (node, candidate) pair, the column's stored
entries are gathered, already in value order, and those whose row carries
the node's label in its tree are kept, weighted by how often the tree drew
the row. A feature's implicit zeros are never sorted: they enter as one
zero-block entry with value 0, placed after the negative values, whose
class counts are the node's counts minus those of the pair's stored
entries, and which is left out when it holds no row. Negative values and
stored zeros therefore split exactly as in a dense search. One cumsum gives
the class counts left of every boundary, a point where the value strictly
increases within a pair, and every boundary is scored at once; only the
final scan of each node's candidates, in ascending feature order, is a
Python loop.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse


def concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges starts[i] .. starts[i] + lengths[i] - 1, concatenated."""
    return np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)


def sort_columns(xc: sparse.csc_matrix) -> sparse.csc_matrix:
    """xc with each column's stored entries in ascending value order."""
    rank = np.empty(xc.nnz, dtype=np.int64)
    rank[np.argsort(xc.data)] = np.arange(xc.nnz)
    column = np.repeat(np.arange(xc.shape[1], dtype=np.int64), np.diff(xc.indptr))
    order = np.argsort(column * xc.nnz + rank)
    return sparse.csc_matrix((xc.data[order], xc.indices[order], xc.indptr), shape=xc.shape)


def _gini_rows(counts: np.ndarray, total: np.ndarray) -> np.ndarray:
    """The gini impurity of each row of class counts with the given totals."""
    share = counts / total[:, None]
    share **= 2
    return 1.0 - share.sum(axis=1)


def best_splits(
    xs: sparse.csc_matrix,
    y: np.ndarray,
    label: np.ndarray,
    weight: np.ndarray,
    nodes: np.ndarray,
    features: np.ndarray,
    feature_ptr: np.ndarray,
    counts: np.ndarray,
    gini: np.ndarray,
    min_leaf: int,
):
    """Best split of each node of a batch, or None when no node splits.

    nodes[j] is (tree t, label l): node j holds the rows r with label[t, r]
    == l, each weighted by weight[t, r], how often the tree drew it. Its
    candidates are features[feature_ptr[j]:feature_ptr[j+1]], ascending;
    counts[j] are its class counts and gini[j] their gini. xs lists each
    column's entries by value (`sort_columns`). Thresholds are midpoints
    between consecutive distinct values of a feature among the node's rows;
    rows with value <= threshold go left. A node splits only when its best
    weighted child gini is below its own gini by more than 1e-12.

    Returns (nodes, feature, threshold, left counts, cells, split), one entry
    per node that splits, in node order, then the rows that go to the other
    side than their split feature's zeros: cells index them in the flattened
    label array, and split[i] is the split that sends cells[i] away.
    """
    n_nodes, n_classes = counts.shape
    n = counts.sum(axis=1)
    n_seg = len(features)
    seg_node = np.repeat(np.arange(n_nodes), np.diff(feature_ptr))

    # the stored entries of every candidate column, ascending by value within
    # it; seg numbers the (node, candidate) pair an entry belongs to
    lengths = xs.indptr[features + 1] - xs.indptr[features]
    entry_seg = np.repeat(np.arange(n_seg), lengths)
    pos = concat_ranges(xs.indptr[features], lengths)
    entry_rows = xs.indices[pos]

    # an entry is in its pair's node when its row carries the node's label
    tree, node_label = nodes[seg_node].T
    cell = np.repeat(tree * label.shape[1], lengths)
    cell += entry_rows
    inside = np.take(label, cell) == np.repeat(node_label.astype(label.dtype), lengths)
    entry_seg, cell, stored = entry_seg[inside], cell[inside], xs.data[pos[inside]]
    labels = y[entry_rows[inside]]
    # per-entry arrays are dropped once read: they are most of a batch's memory
    del pos, entry_rows, inside
    w = np.take(weight, cell)

    # each feature's zeros are one entry: what its stored entries leave over,
    # placed after the feature's negative values
    zero = np.take(counts, seg_node, axis=0) - np.bincount(
        entry_seg * n_classes + labels, weights=w, minlength=n_seg * n_classes
    ).reshape(-1, n_classes)
    zero_n = zero.sum(axis=1)
    zero_seg = np.flatnonzero(zero_n > 0)
    negative = np.bincount(entry_seg[stored < 0], minlength=n_seg)[zero_seg]
    at_zero = np.searchsorted(entry_seg, zero_seg) + negative + np.arange(len(zero_seg))
    is_stored = np.ones(len(entry_seg) + len(zero_seg), dtype=bool)
    is_stored[at_zero] = False
    at_stored = np.flatnonzero(is_stored)
    seg = np.empty(len(is_stored), dtype=np.intp)
    seg[at_stored], seg[at_zero] = entry_seg, zero_seg
    values = np.zeros(len(is_stored), dtype=xs.dtype)
    values[at_stored] = stored

    # class and sample counts of the entries before each position
    cum_n = np.zeros(len(seg) + 1)
    cum_n[at_stored + 1], cum_n[at_zero + 1] = w, zero_n[zero_seg]
    np.cumsum(cum_n, out=cum_n)
    cum = np.zeros((len(seg) + 1, n_classes))
    np.put(cum, (at_stored + 1) * n_classes + labels, w)
    cum[at_zero + 1] = np.take(zero, zero_seg, axis=0)
    np.cumsum(cum, axis=0, out=cum)
    del is_stored, at_stored, w, labels, zero

    # boundary b splits entries ..b | b+1.. where the value increases
    boundary = np.flatnonzero((seg[:-1] == seg[1:]) & (values[:-1] < values[1:]))
    seg_start = np.searchsorted(seg, np.arange(n_seg))[seg[boundary]]
    n_left = cum_n[boundary + 1] - cum_n[seg_start]
    node = seg_node[seg[boundary]]
    legal = (n_left >= min_leaf) & (n[node] - n_left >= min_leaf)
    boundary, seg_start, n_left, node = boundary[legal], seg_start[legal], n_left[legal], node[legal]
    if boundary.size == 0:
        return None
    left = np.take(cum, boundary + 1, axis=0) - np.take(cum, seg_start, axis=0)
    del cum, cum_n, seg_start
    n_right = n[node] - n_left
    weighted = (
        n_left * _gini_rows(left, n_left)
        + n_right * _gini_rows(np.take(counts, node, axis=0) - left, n_right)
    ) / n[node]

    # each candidate's best score, scanned in ascending feature order per node
    seg_of = seg[boundary]
    runs = np.flatnonzero(np.concatenate(([True], seg_of[1:] != seg_of[:-1])))
    run_best = np.minimum.reduceat(weighted, runs)
    best, kept = [math.inf] * n_nodes, [-1] * n_nodes
    for k, (j, score) in enumerate(zip(node[runs].tolist(), run_best.tolist())):
        if score < best[j] - 1e-12:
            best[j], kept[j] = score, k
    chosen = [k for j, k in enumerate(kept) if k >= 0 and best[j] < gini[j] - 1e-12]
    if not chosen:
        return None
    score = run_best[chosen]

    # that candidate's first boundary reaching its best score has the lowest threshold
    run_size = np.diff(np.append(runs, len(weighted)))[chosen]
    span = concat_ranges(runs[chosen], run_size)
    hits = span[weighted[span] == np.repeat(score, run_size)]
    picked = hits[np.searchsorted(hits, runs[chosen])]
    b = boundary[picked]
    threshold = (values[b] + values[b + 1]) / 2.0

    # a row goes left when its value, 0 unless stored, is <= the threshold,
    # so only a stored value can send a row away from its feature's zeros
    split_of_seg = np.full(n_seg, -1)
    split_of_seg[seg[b]] = np.arange(len(b))
    split = split_of_seg[entry_seg]
    mine = split >= 0
    split, cell = split[mine], cell[mine]
    away = (stored[mine] <= threshold[split]) != (0.0 <= threshold[split])
    left = np.take(left, picked, axis=0)
    return node[picked], features[seg[b]], threshold, left, cell[away], split[away]
