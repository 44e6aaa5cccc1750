from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import sparse

from conftest import DATA_DIR, ECOMMERCE_LABELS
from zsbench.baselines.common import TrainingError
from zsbench.baselines import logreg
from zsbench.baselines.logreg import DivergenceError, _loss_and_grads, softmax, train_logreg
from zsbench.dataset import LabelSchema, load_corpus, stratified_split
from zsbench.features import fit_vectorizer
from zsbench.preprocess import CleaningPolicy, preprocess_corpus


def csr(rows) -> sparse.csr_matrix:
    return sparse.csr_matrix(np.array(rows, dtype=float))


SCHEMA2 = LabelSchema("t", ["a", "b"])


class TestTraining:
    def test_loss_strictly_decreases_on_separable_data(self, monkeypatch):
        losses = []

        def recording(*args):
            result = _loss_and_grads(*args)
            losses.append(result[0])
            return result

        monkeypatch.setattr(logreg, "_loss_and_grads", recording)
        features = csr([[1, 0], [0.9, 0.1], [0, 1], [0.1, 0.9]])
        labels = ["a", "a", "b", "b"]
        train_logreg(features, labels, SCHEMA2, learning_rate=0.1, epochs=50)
        assert len(losses) == 50
        diffs = np.diff(losses)
        assert (diffs < 0).all()

    def test_zero_epochs_gives_uniform_scores(self):
        model = train_logreg(csr([[1, 0], [0, 1]]), ["a", "b"], SCHEMA2, epochs=0)
        proba = model.predict_proba(csr([[0.3, 0.7]]))
        assert proba[0] == pytest.approx((0.5, 0.5), abs=1e-12)
        assert proba[0].argmax() == 0  # tie broken by schema order

    def test_one_hot_features_learn_majority_class(self):
        # brute-force oracle: per feature, the majority class among its docs
        assignments = ["a", "a", "b", "a", "b", "b", "b", "a", "a"]
        feature_of = [0, 0, 0, 1, 1, 1, 2, 2, 2]  # feature 0 -> a, 1 -> b, 2 -> a
        features = csr([[1.0 if i == f else 0.0 for i in range(3)] for f in feature_of])
        majority = {}
        for f in set(feature_of):
            votes = [assignments[i] for i in range(len(feature_of)) if feature_of[i] == f]
            majority[f] = max(set(votes), key=votes.count)
        model = train_logreg(
            features, assignments, SCHEMA2, learning_rate=0.5, l2_lambda=0.0, epochs=500
        )
        proba = model.predict_proba(csr(np.eye(3)))
        for f in range(3):
            assert SCHEMA2.labels[proba[f].argmax()] == majority[f]

    def test_divergence_reported_with_epoch(self):
        features = csr([[100.0, 0], [0, 100.0]])
        with pytest.raises(DivergenceError, match="epoch"):
            train_logreg(
                features, ["a", "b"], SCHEMA2, learning_rate=1e18, epochs=500
            )

    def test_bad_learning_rate(self):
        with pytest.raises(TrainingError, match="learning_rate"):
            train_logreg(csr([[1], [1]]), ["a", "b"], SCHEMA2, learning_rate=0)

    def test_deterministic(self):
        features = csr([[1, 0], [0.5, 0.5], [0, 1]])
        labels = ["a", "b", "b"]
        m1 = train_logreg(features, labels, SCHEMA2, epochs=30)
        m2 = train_logreg(features, labels, SCHEMA2, epochs=30)
        assert np.array_equal(m1.weights, m2.weights)
        assert np.array_equal(m1.bias, m2.bias)

    def test_one_gradient_evaluation_per_epoch_with_one_transpose(self, monkeypatch):
        """The gradient oracles check the very function each epoch calls,
        and `x.T` is built once per fit, not once per epoch."""
        calls = []

        def counting(weights, bias, x, xt, y_onehot, l2_lambda):
            calls.append(xt)
            return _loss_and_grads(weights, bias, x, xt, y_onehot, l2_lambda)

        monkeypatch.setattr(logreg, "_loss_and_grads", counting)
        features = csr([[1, 0], [0.5, 0.5], [0, 1]])
        train_logreg(features, ["a", "b", "b"], SCHEMA2, epochs=7)
        assert len(calls) == 7
        assert all(xt is calls[0] for xt in calls)
        calls.clear()
        train_logreg(features, ["a", "b", "b"], SCHEMA2, epochs=0)
        assert calls == []


@st.composite
def logit_rows(draw):
    """(N, K) logits for K from 1 to 12, rich in tied maxima and extremes."""
    k = draw(st.integers(1, 12))
    value = st.sampled_from([0.0, -0.0, 1.0, 3.5, 1e300, -1e300, -np.inf]) | st.floats(
        -800.0, 800.0
    )
    rows = draw(st.lists(st.lists(value, min_size=k, max_size=k), min_size=1, max_size=8))
    return np.array(rows, dtype=float)


class TestSoftmax:
    @given(logits=logit_rows())
    def test_column_max_matches_the_axis_reduction_byte_for_byte(self, logits):
        expected = logits.copy()
        with np.errstate(invalid="ignore"):  # a row of -inf gives NaN both ways
            expected -= expected.max(axis=-1, keepdims=True)
            np.exp(expected, out=expected)
            np.divide(expected, expected.sum(axis=-1, keepdims=True), out=expected)
            got = softmax(logits.copy())
        assert got.tobytes() == expected.tobytes()


class TestPinnedOutput:
    def test_fixture_weights_bias_and_scores_are_pinned(self):
        """LG at default hyperparameters on the fixture corpus's TF-IDF
        split (test_size 150, seed 42): any change to the arithmetic of a
        fit or a prediction shows as a changed sha256."""
        schema = LabelSchema("e-commerce", ECOMMERCE_LABELS)
        corpus = load_corpus(DATA_DIR / "fixture_corpus.csv", "csv", "text", "category", schema)
        train_ids, test_ids = stratified_split(corpus, 150, 42)
        tokens = preprocess_corpus([corpus.texts[i] for i in train_ids + test_ids], CleaningPolicy())
        train_docs, test_docs = tokens[: len(train_ids)], tokens[len(train_ids) :]
        vectorizer = fit_vectorizer(train_docs)
        model = train_logreg(
            vectorizer.transform_all(train_docs), [corpus.labels[i] for i in train_ids], schema
        )
        proba = model.predict_proba(vectorizer.transform_all(test_docs))

        def sha(array):
            return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()

        assert model.weights.shape == (4, 60)
        assert proba.shape == (150, 4)
        assert sha(model.weights) == "39c4aec68fe79c4eff18c24d09a455b9025e8013af084622893dbe923a320e48"
        assert sha(model.bias) == "d3b3934771e964d2180e2dd1a0c83d67c746cf4de6a777f0f9f1c7b25d152e06"
        assert sha(proba) == "edbcb84e6d660be08f937f4075c189faa3fc9e17d6fdf961876c92b67f2bd4fc"


class TestGradientCheck:
    def test_analytic_matches_central_differences(self):
        rng = np.random.default_rng(12)
        n, v, k = 12, 10, 3
        x = rng.normal(size=(n, v))
        y = rng.integers(0, k, size=n)
        y_onehot = np.zeros((n, k))
        y_onehot[np.arange(n), y] = 1.0
        weights = rng.normal(scale=0.5, size=(k, v))
        bias = rng.normal(scale=0.5, size=k)
        l2 = 0.01

        _, grad_w, grad_b = _loss_and_grads(weights.T, bias, x, x.T, y_onehot, l2)
        grad_w = grad_w.T

        def loss(w, b):
            return _loss_and_grads(w.T, b, x, x.T, y_onehot, l2)[0]

        eps = 1e-5
        num_w = np.zeros_like(weights)
        for i in range(k):
            for j in range(v):
                up = weights.copy()
                down = weights.copy()
                up[i, j] += eps
                down[i, j] -= eps
                num_w[i, j] = (loss(up, bias) - loss(down, bias)) / (2 * eps)
        num_b = np.zeros_like(bias)
        for i in range(k):
            up = bias.copy()
            down = bias.copy()
            up[i] += eps
            down[i] -= eps
            num_b[i] = (loss(weights, up) - loss(weights, down)) / (2 * eps)

        rel_w = np.abs(grad_w - num_w) / np.maximum(np.abs(num_w), 1e-8)
        rel_b = np.abs(grad_b - num_b) / np.maximum(np.abs(num_b), 1e-8)
        assert rel_w.max() < 1e-6
        assert rel_b.max() < 1e-6
