"""The sparse CART search against the dense reference grower in dense_cart.py.

Both must grow the same trees node for node, with bit-equal thresholds and
distributions, and route rows to the same leaves. The trainers and the
forest's predict_proba must never densify their input. A forest's trees grow
in lockstep, so the number of split searches follows its largest tree, not
its total node count, and does not change the trees. A fitted forest keeps
its nodes in flat arrays, a few dozen bytes per node.
"""

from __future__ import annotations

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import sparse

from dense_cart import dense_forest, dense_predict_proba, forest_trees
from zsbench.baselines import tree
from zsbench.baselines.tree import train_dt, train_rf
from zsbench.dataset import LabelSchema, load_corpus, stratified_split
from zsbench.features import fit_vectorizer
from zsbench.preprocess import CleaningPolicy, preprocess_corpus

DATA = Path(__file__).parent / "data"
SCHEMA3 = LabelSchema("t3", ["a", "b", "c"])

# few distinct values make ties between thresholds and between features common
TIED_VALUES = st.sampled_from([-1.5, -0.5, 0.0, 0.25, 0.5, 1.0, 2.0])
VALUES = TIED_VALUES | st.floats(-4, 4, allow_nan=False, allow_infinity=False, width=16)


def exact_nodes(root) -> list[tuple]:
    """Preorder (feature, threshold bits, n_samples, distribution bits) of a tree."""
    out, pending = [], [root]
    while pending:
        node = pending.pop()
        threshold = None if node.is_leaf else node.threshold.hex()
        out.append((node.feature, threshold, node.n_samples, node.distribution.tobytes()))
        if not node.is_leaf:
            pending += [node.right, node.left]
    return out


def assert_same_forest(model, reference, queries: sparse.csr_matrix) -> None:
    assert [exact_nodes(t) for t in forest_trees(model)] == [exact_nodes(t) for t in reference]
    expected = dense_predict_proba(reference, queries.toarray())
    assert np.array_equal(model.predict_proba(queries), expected)


@st.composite
def sparse_problems(draw):
    """(dense matrix, CSR with stored zeros, labels): values may be negative,
    some stored entries hold 0 and some columns store nothing."""
    n = draw(st.integers(2, 24))
    v = draw(st.integers(1, 6))
    values = draw(hnp.arrays(np.float64, (n, v), elements=VALUES))
    stored = draw(hnp.arrays(np.bool_, (n, v)))
    for col in draw(st.lists(st.integers(0, v - 1), max_size=2)):
        stored[:, col] = False
    rows, cols = np.nonzero(stored)
    x = sparse.csr_matrix((values[rows, cols], (rows, cols)), shape=(n, v))
    y = draw(hnp.arrays(np.intp, n, elements=st.integers(0, len(SCHEMA3) - 1)))
    return np.where(stored, values, 0.0), x, y


@settings(max_examples=200, deadline=None)
@given(
    problem=sparse_problems(),
    min_leaf=st.integers(1, 3),
    max_depth=st.integers(1, 5),
    seed=st.integers(0, 2**31),
)
def test_dt_matches_dense_reference(problem, min_leaf, max_depth, seed):
    xd, x, y = problem
    labels = [SCHEMA3.labels[i] for i in y]
    model = train_dt(x, labels, SCHEMA3, max_depth=max_depth, min_leaf=min_leaf)
    reference = dense_forest(xd, y, len(SCHEMA3), 1, max_depth, min_leaf, "all", False, seed)
    assert_same_forest(model, reference, x)


@settings(max_examples=200, deadline=None)
@given(
    problem=sparse_problems(),
    n_trees=st.integers(1, 6),
    min_leaf=st.integers(1, 3),
    max_depth=st.integers(1, 8),
    seed=st.integers(0, 2**31),
)
def test_rf_matches_dense_reference(problem, n_trees, min_leaf, max_depth, seed):
    # the trees of a forest grow in lockstep and finish at different steps
    xd, x, y = problem
    labels = [SCHEMA3.labels[i] for i in y]
    model = train_rf(
        x, labels, SCHEMA3, n_trees=n_trees, max_depth=max_depth, min_leaf=min_leaf,
        feature_subsample="sqrt", bootstrap=True, seed=seed,
    )
    reference = dense_forest(
        xd, y, len(SCHEMA3), n_trees, max_depth, min_leaf, "sqrt", True, seed
    )
    assert_same_forest(model, reference, x)


@pytest.fixture(scope="module")
def fixture_features():
    """TF-IDF train and test matrices and train labels of the fixture corpus."""
    schema = LabelSchema(
        "e-commerce", ["Household", "Books", "Clothing & Accessories", "Electronics"]
    )
    corpus = load_corpus(DATA / "fixture_corpus.csv", "csv", "text", "category", schema)
    train_ids, test_ids = stratified_split(corpus, 150, 42)
    train_docs = preprocess_corpus([corpus.texts[i] for i in train_ids], CleaningPolicy())
    test_docs = preprocess_corpus([corpus.texts[i] for i in test_ids], CleaningPolicy())
    vectorizer = fit_vectorizer(train_docs)
    labels = [corpus.labels[i] for i in train_ids]
    return vectorizer.transform_all(train_docs), vectorizer.transform_all(test_docs), labels, schema


def test_fixture_corpus_trees_match_dense_reference(fixture_features):
    x, x_test, labels, schema = fixture_features
    xd, y = x.toarray(), np.array(schema.codes(labels), dtype=np.intp)
    dt = train_dt(x, labels, schema, max_depth=16)
    rf = train_rf(x, labels, schema, n_trees=50, max_depth=16, seed=7)
    for model, reference in [
        (dt, dense_forest(xd, y, len(schema), 1, 16, 1, "all", False, 0)),
        (rf, dense_forest(xd, y, len(schema), 50, 16, 1, "sqrt", True, 7)),
    ]:
        assert_same_forest(model, reference, x_test)
        assert not forest_trees(model)[0].is_leaf


def searched_nodes(root, max_depth: int, min_leaf: int = 1) -> int:
    """How many nodes of a tree the grower scored: those neither at max_depth,
    nor pure, nor too small to split."""
    count, pending = 0, [(root, 0)]
    while pending:
        node, depth = pending.pop()
        d = node.distribution
        pure = 1.0 - (d * d).sum() == 0.0
        count += depth < max_depth and not pure and node.n_samples >= 2 * min_leaf
        if not node.is_leaf:
            pending += [(node.left, depth + 1), (node.right, depth + 1)]
    return count


@pytest.mark.parametrize("cap", [1, 7, 64])
def test_forest_grows_in_lockstep(fixture_features, monkeypatch, cap):
    x, x_test, labels, schema = fixture_features
    expected = train_rf(x, labels, schema, n_trees=50, max_depth=16, seed=7)
    searches = []
    search = tree.best_splits

    def counted(*args):
        searches.append(len(args[7]))  # one row of class counts per node
        return search(*args)

    monkeypatch.setattr(tree, "_SEARCH_NODES", cap)
    monkeypatch.setattr(tree, "best_splits", counted)
    model = train_rf(x, labels, schema, n_trees=50, max_depth=16, seed=7)
    assert_same_forest(model, forest_trees(expected), x_test)

    # one step per node of the tree scored most often, one search per cap nodes
    steps = max(searched_nodes(root, 16) for root in forest_trees(model))
    assert len(searches) <= steps * math.ceil(50 / cap)
    assert max(searches) <= cap
    if cap >= 50:
        assert len(searches) == steps


def test_forest_retains_few_bytes_per_node(fixture_features):
    # one Python object per node, holding a numpy row, retained about 250 B
    x, _, labels, schema = fixture_features
    train_rf(x, labels, schema, n_trees=2, max_depth=16, seed=7)  # first-call caches
    tracemalloc.start()
    try:
        model = train_rf(x, labels, schema, n_trees=50, max_depth=16, seed=7)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n_nodes = len(model.feature)
    assert n_nodes > 50 * 3
    assert retained / n_nodes < 100


def test_trees_never_densify(fixture_features, monkeypatch):
    x, x_test, labels, schema = fixture_features

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} densified")

    formats = [sparse.csr_matrix, sparse.csc_matrix, sparse.coo_matrix,
               sparse.csr_array, sparse.csc_array, sparse.coo_array]
    for cls in {base for fmt in formats for base in fmt.__mro__}:
        for method in ("toarray", "todense"):
            if method in vars(cls):
                monkeypatch.setattr(cls, method, refuse)
    with pytest.raises(AssertionError, match="densified"):
        x.toarray()

    for model in [
        train_dt(x, labels, schema, max_depth=8),
        train_rf(x, labels, schema, n_trees=5, max_depth=8, seed=7),
    ]:
        assert model.predict_proba(x_test).shape == (x_test.shape[0], len(schema))
