from __future__ import annotations

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import knn_oracle
from conftest import DATA_DIR, ECOMMERCE_LABELS
from dense_cart import dense_forest, forest_trees
from test_tree_sparse import assert_same_forest, sparse_problems
from zsbench.baselines import tree
from zsbench.baselines.common import TrainingError
from zsbench.baselines.knn import train_knn
from zsbench.baselines.logreg import train_logreg
from zsbench.baselines.mnb import train_mnb
from zsbench.baselines.tree import train_dt, train_rf
from zsbench.dataset import LabelSchema, load_corpus, stratified_split
from zsbench.features import fit_vectorizer
from zsbench.preprocess import CleaningPolicy, preprocess_corpus

SCHEMA = LabelSchema("t", ["a", "b"])
SCHEMA3 = LabelSchema("t3", ["a", "b", "c"])


def csr(rows) -> sparse.csr_matrix:
    return sparse.csr_matrix(np.array(rows, dtype=float))


def predicted_labels(model, x) -> list[str]:
    return [model.schema.labels[i] for i in model.predict_proba(x).argmax(axis=1)]


def tree_structure(node) -> tuple:
    """Nested (feature, threshold, n_samples, distribution, left, right) of a tree."""
    if node.is_leaf:
        return (None, None, node.n_samples, tuple(node.distribution.tolist()))
    return (
        node.feature,
        node.threshold,
        node.n_samples,
        tuple(node.distribution.tolist()),
        tree_structure(node.left),
        tree_structure(node.right),
    )


def tree_depth(node) -> int:
    if node.is_leaf:
        return 0
    return 1 + max(tree_depth(node.left), tree_depth(node.right))


def only_tree(model):
    """The single tree of a decision tree, which is a one-tree forest."""
    trees = forest_trees(model)
    assert len(trees) == 1
    return trees[0]


def random_dataset(rng, n, dim, labels):
    features = csr([rng.random(dim).round(2) for _ in range(n)])
    y = [labels[rng.integers(0, len(labels))] for _ in range(n)]
    # ensure every class appears
    for i, lab in enumerate(labels):
        y[i] = lab
    return features, y


def fixture_tfidf():
    """TF-IDF train and test matrices, train labels and schema of the fixture
    corpus's split (test_size 150, seed 42)."""
    schema = LabelSchema("e-commerce", ECOMMERCE_LABELS)
    corpus = load_corpus(DATA_DIR / "fixture_corpus.csv", "csv", "text", "category", schema)
    train_ids, test_ids = stratified_split(corpus, 150, 42)
    tokens = preprocess_corpus([corpus.texts[i] for i in train_ids + test_ids], CleaningPolicy())
    train_docs, test_docs = tokens[: len(train_ids)], tokens[len(train_ids) :]
    vectorizer = fit_vectorizer(train_docs)
    labels = [corpus.labels[i] for i in train_ids]
    return vectorizer.transform_all(train_docs), vectorizer.transform_all(test_docs), labels, schema


def node_arrays(model) -> tuple[np.ndarray, ...]:
    """A fitted forest's node arrays, in the order its constructor takes them."""
    return model.feature, model.threshold, model.left, model.n_samples, model.value


@st.composite
def knn_cases(draw):
    """(train rows, labels, k, query rows) rich in similarity ties: few
    distinct small-integer rows, so duplicate rows; zero rows on both sides,
    so all-tied query blocks; and k often the largest odd k <= n_train."""
    dim = draw(st.integers(1, 4))
    row = st.lists(st.integers(0, 2), min_size=dim, max_size=dim)
    distinct = draw(st.lists(row, min_size=1, max_size=5))
    n_train = draw(st.integers(1, 30))
    train = draw(st.lists(st.sampled_from(distinct), min_size=n_train, max_size=n_train))
    labels = draw(
        st.lists(st.sampled_from(SCHEMA3.labels), min_size=n_train, max_size=n_train)
    )
    largest = n_train if n_train % 2 else n_train - 1
    k = draw(
        st.sampled_from([largest, max(1, largest - 2)]) | st.sampled_from(range(1, largest + 1, 2))
    )
    query = st.sampled_from([*distinct, [0] * dim]) | row
    queries = draw(st.lists(query, min_size=1, max_size=140))
    return train, labels, k, queries


class TestKnn:
    def test_k1_returns_own_label(self):
        features = csr([[1, 0], [0, 1]])
        model = train_knn(features, ["a", "b"], SCHEMA, k=1)
        assert predicted_labels(model, features) == ["a", "b"]

    def test_vote_fractions(self):
        features = csr([[1, 0], [0.9, 0.1], [0, 1]])
        model = train_knn(features, ["a", "a", "b"], SCHEMA, k=3)
        proba = model.predict_proba(csr([[1, 0]]))
        assert proba[0] == pytest.approx((2 / 3, 1 / 3), abs=1e-12)

    def test_k_bounded_by_training_size(self):
        with pytest.raises(TrainingError, match="exceeds"):
            train_knn(csr([[1], [1]]), ["a", "b"], SCHEMA, k=3)

    def test_k_must_be_odd(self):
        features = csr([[1, 0], [0, 1], [1, 1], [0.5, 1]])
        with pytest.raises(TrainingError, match="odd"):
            train_knn(features, ["a", "b", "a", "b"], SCHEMA, k=2)

    def test_zero_vector_query_still_valid_distribution(self):
        features = csr([[1, 0], [0, 1], [1, 1]])
        model = train_knn(features, ["a", "b", "a"], SCHEMA, k=3)
        proba = model.predict_proba(csr([[0, 0]]))
        assert proba[0].sum() == pytest.approx(1.0, abs=1e-9)


    def test_blocked_prediction_matches_row_by_row_reference(self):
        # small integer weights: dot products are exact and similarity ties common
        rng = np.random.default_rng(5)
        train = rng.integers(0, 3, size=(40, 6)).astype(float)
        y = rng.integers(0, 3, size=40)
        queries = rng.integers(0, 3, size=(150, 6)).astype(float)  # several query blocks
        model = train_knn(csr(train), [SCHEMA3.labels[i] for i in y], SCHEMA3, k=5)

        norms = np.sqrt((train * train).sum(axis=1))
        inv_norms = np.array([1.0 / n if n > 0 else 0.0 for n in norms])
        expected = np.zeros((len(queries), 3))
        for i, q in enumerate(queries):
            q_norm = np.sqrt((q * q).sum())
            sims = (train @ q) * inv_norms / q_norm if q_norm > 0 else np.zeros(len(train))
            for j in sorted(range(len(train)), key=lambda j: (-sims[j], j))[:5]:
                expected[i, y[j]] += 1 / 5
        assert model.predict_proba(csr(queries)) == pytest.approx(expected, abs=1e-12)

    def test_query_whose_norm_underflows_is_a_zero_vector(self):
        model = train_knn(csr([[1, 0], [0, 1], [0, 2]]), ["a", "b", "b"], SCHEMA, k=1)
        queries = csr([[0, 1e-200], [0, 1]])
        assert predicted_labels(model, queries) == ["a", "b"]
        expected = knn_oracle.predict_proba(model, queries)
        assert model.predict_proba(queries).tobytes() == expected.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(case=knn_cases())
    def test_top_k_selection_matches_full_sort_oracle(self, case):
        train, labels, k, queries = case
        model = train_knn(csr(train), labels, SCHEMA3, k=k)
        got = model.predict_proba(csr(queries))
        assert got.tobytes() == knn_oracle.predict_proba(model, csr(queries)).tobytes()

    def test_fixture_scores_are_pinned(self):
        """KNN at k=5 on the fixture corpus's TF-IDF split (test_size 150,
        seed 42, so several query blocks): any change to the arithmetic of
        the similarities or the vote shows as a changed sha256."""
        x, x_test, labels, schema = fixture_tfidf()
        proba = train_knn(x, labels, schema, k=5).predict_proba(x_test)
        assert proba.shape == (150, 4)
        digest = hashlib.sha256(np.ascontiguousarray(proba).tobytes()).hexdigest()
        assert digest == "838c4eb2c78700e80f9efe38f17e7bc2e42ff29c11c4f17247be8e58c6385bea"


@pytest.mark.parametrize(
    "trainer, kwargs, nodes_sha, proba_sha",
    [
        (
            train_dt,
            {},
            "213a62b8d1faa9aeef203b687b1a7f1c76830d9109f8cfb8e02085c2b7ccd9d4",
            "8900eb86689d3c69ee2bde231d220722155a4859d8b7094e23d5331318dc1d0e",
        ),
        (
            train_rf,
            {"n_trees": 100, "seed": 7},
            "9ae92be62e4035fe06e88a26e43e54019d7427bed0393928b2a4729ab2cee709",
            "c167dde857b4ac7ec6f2c21e14b6df8f5a0991fc3d2fc35a720d699de1929154",
        ),
    ],
    ids=["dt", "rf"],
)
def test_fixture_forests_are_pinned(trainer, kwargs, nodes_sha, proba_sha):
    """DT and RF on the fixture corpus's TF-IDF split, as KNN's pin above: a
    change to the grower that moves a node, a threshold bit or a leaf
    distribution, or to the routing, shows as a changed sha256."""
    x, x_test, labels, schema = fixture_tfidf()
    model = trainer(x, labels, schema, **kwargs)
    nodes = hashlib.sha256()
    for array in node_arrays(model):
        nodes.update(np.ascontiguousarray(array).tobytes())
    proba = model.predict_proba(x_test)
    assert proba.shape == (150, 4)
    assert nodes.hexdigest() == nodes_sha
    assert hashlib.sha256(np.ascontiguousarray(proba).tobytes()).hexdigest() == proba_sha


class TestDecisionTree:
    def test_pure_input_single_leaf(self):
        features = csr([[1, 0], [0.5, 0.5]])
        model = train_dt(features, ["a", "a"], SCHEMA)
        root = only_tree(model)
        assert tree_depth(root) == 0
        assert root.is_leaf
        query = csr([[0.7, 0.7]])
        assert predicted_labels(model, query) == ["a"]
        assert model.predict_proba(query)[0] == pytest.approx((1.0, 0.0), abs=1e-12)

    def test_depth_zero_on_uninformative_labels(self):
        # all classes present but features identical: no split improves gini
        features = csr([[1, 0], [1, 0]])
        model = train_dt(features, ["a", "b"], SCHEMA)
        assert tree_depth(only_tree(model)) == 0
        proba = model.predict_proba(csr([[1, 0]]))
        assert proba[0] == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_separable_data_learned_exactly(self):
        features = csr([[0.1, 0], [0.2, 0], [0.8, 0], [0.9, 0]])
        labels = ["a", "a", "b", "b"]
        model = train_dt(features, labels, SCHEMA)
        assert tree_depth(only_tree(model)) == 1
        assert predicted_labels(model, features) == labels

    def test_max_depth_respected(self):
        rng = np.random.default_rng(0)
        features, labels = random_dataset(rng, 40, 6, ["a", "b"])
        model = train_dt(features, labels, SCHEMA, max_depth=2)
        assert tree_depth(only_tree(model)) <= 2

    def test_min_leaf_respected(self):
        rng = np.random.default_rng(1)
        features, labels = random_dataset(rng, 30, 4, ["a", "b"])
        model = train_dt(features, labels, SCHEMA, min_leaf=5)
        root = only_tree(model)

        def check(node):
            if node.is_leaf:
                assert node.n_samples >= 5 or node is root
            else:
                check(node.left)
                check(node.right)

        check(root)
        assert not root.is_leaf

    def test_invalid_params(self):
        features = csr([[1], [0]])
        with pytest.raises(TrainingError, match="max_depth"):
            train_dt(features, ["a", "b"], SCHEMA, max_depth=0)
        with pytest.raises(TrainingError, match="min_leaf"):
            train_dt(features, ["a", "b"], SCHEMA, min_leaf=0)


class TestRandomForest:
    def test_degenerates_to_single_tree(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            features, labels = random_dataset(rng, 25, 5, ["a", "b", "c"])
            dt = train_dt(features, labels, SCHEMA3)
            rf = train_rf(
                features,
                labels,
                SCHEMA3,
                n_trees=1,
                bootstrap=False,
                feature_subsample="all",
                seed=trial,
            )
            queries, _ = random_dataset(rng, 10, 5, ["a", "b", "c"])
            assert rf.predict_proba(queries) == pytest.approx(dt.predict_proba(queries), abs=1e-12)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        features, labels = random_dataset(rng, 30, 6, ["a", "b"])
        m1 = train_rf(features, labels, SCHEMA, n_trees=8, seed=11)
        m2 = train_rf(features, labels, SCHEMA, n_trees=8, seed=11)
        assert [tree_structure(t) for t in forest_trees(m1)] == [
            tree_structure(t) for t in forest_trees(m2)
        ]

    def test_seed_changes_forest(self):
        rng = np.random.default_rng(4)
        features, labels = random_dataset(rng, 30, 6, ["a", "b"])
        m1 = train_rf(features, labels, SCHEMA, n_trees=8, seed=1)
        m2 = train_rf(features, labels, SCHEMA, n_trees=8, seed=2)
        assert [tree_structure(t) for t in forest_trees(m1)] != [
            tree_structure(t) for t in forest_trees(m2)
        ]

    @settings(max_examples=100, deadline=None)
    @given(
        problem=sparse_problems(),
        n_trees=st.integers(1, 8),
        min_leaf=st.integers(1, 3),
        max_depth=st.integers(1, 8),
        subsample=st.sampled_from(["all", "sqrt"]),
        seed=st.integers(0, 2**31),
    )
    def test_search_cap_never_changes_a_forest(
        self, problem, n_trees, min_leaf, max_depth, subsample, seed
    ):
        # negative values put some thresholds below 0, so the zeros go right
        # and the rows a split relabels are those with small stored values;
        # every cap must grow the dense reference's forest
        xd, x, y = problem
        labels = [SCHEMA3.labels[i] for i in y]
        reference = dense_forest(
            xd, y, len(SCHEMA3), n_trees, max_depth, min_leaf, subsample, True, seed
        )
        forests = []
        for cap in (1, 2, 64):
            with mock.patch.object(tree, "_SEARCH_NODES", cap):
                model = train_rf(
                    x, labels, SCHEMA3, n_trees=n_trees, max_depth=max_depth, min_leaf=min_leaf,
                    feature_subsample=subsample, bootstrap=True, seed=seed,
                )
            assert_same_forest(model, reference, x)
            forests.append([np.ascontiguousarray(a).tobytes() for a in node_arrays(model)])
        assert forests[0] == forests[1] == forests[2]

    @pytest.mark.parametrize("min_leaf", [0, -1])
    def test_rejects_min_leaf_below_one(self, min_leaf):
        with pytest.raises(TrainingError, match="min_leaf must be >= 1"):
            train_rf(csr([[1], [0]]), ["a", "b"], SCHEMA, min_leaf=min_leaf)

    def test_rejects_bad_subsample_mode(self):
        with pytest.raises(TrainingError, match="feature_subsample"):
            train_rf(csr([[1], [0]]), ["a", "b"], SCHEMA, feature_subsample="log2")


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    trainer=st.sampled_from(["mnb", "logreg", "knn", "dt", "rf"]),
)
def test_all_predictors_emit_distributions(seed, trainer):
    rng = np.random.default_rng(seed)
    features, labels = random_dataset(rng, 12, 4, ["a", "b", "c"])
    kwargs = {
        "mnb": {},
        "logreg": {"epochs": 5},
        "knn": {"k": 3},
        "dt": {"max_depth": 4},
        "rf": {"n_trees": 3, "max_depth": 4},
    }[trainer]
    train = {
        "mnb": train_mnb,
        "logreg": train_logreg,
        "knn": train_knn,
        "dt": train_dt,
        "rf": train_rf,
    }[trainer]
    model = train(features, labels, SCHEMA3, **kwargs)
    queries = sparse.vstack([csr([[0, 0, 0, 0], rng.random(4)]), features[0]], format="csr")
    proba = model.predict_proba(queries)
    assert proba.shape == (3, 3)
    assert (proba >= 0).all()
    assert proba.sum(axis=1) == pytest.approx(np.ones(3), abs=1e-9)
