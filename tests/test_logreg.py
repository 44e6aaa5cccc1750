from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from zsbench.baselines.common import TrainingError
from zsbench.baselines.logreg import DivergenceError, _loss_and_grads, train_logreg
from zsbench.dataset import LabelSchema


def csr(rows) -> sparse.csr_matrix:
    return sparse.csr_matrix(np.array(rows, dtype=float))


SCHEMA2 = LabelSchema("t", ["a", "b"])


class TestTraining:
    def test_loss_strictly_decreases_on_separable_data(self):
        features = csr([[1, 0], [0.9, 0.1], [0, 1], [0.1, 0.9]])
        labels = ["a", "a", "b", "b"]
        model = train_logreg(features, labels, SCHEMA2, learning_rate=0.1, epochs=50)
        diffs = np.diff(model.loss_history)
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

        _, grad_w, grad_b = _loss_and_grads(weights, bias, x, y_onehot, l2)

        def loss(w, b):
            return _loss_and_grads(w, b, x, y_onehot, l2)[0]

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
