from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from scipy import sparse

from zsbench.baselines.common import TrainingError
from zsbench.baselines.mnb import train_mnb
from zsbench.dataset import LabelSchema


def csr(rows) -> sparse.csr_matrix:
    return sparse.csr_matrix(np.array(rows, dtype=float))


def brute_force_posterior(train_x, train_y, labels, alpha, query):
    """Direct Bayes evaluation: prior * product of likelihood^weight."""
    v = len(train_x[0])
    posts = []
    for label in labels:
        rows = [x for x, y in zip(train_x, train_y) if y == label]
        prior = len(rows) / len(train_x)
        class_total = sum(sum(r) for r in rows)
        value = prior
        for t in range(v):
            term_sum = sum(r[t] for r in rows)
            likelihood = (term_sum + alpha) / (class_total + alpha * v)
            value *= likelihood ** query[t]
        posts.append(value)
    total = sum(posts)
    return [p / total for p in posts]


class TestTrainMnb:
    schema = LabelSchema("t", ["spam", "ham"])

    def test_hand_computed_likelihood(self):
        # two docs, raw counts as weights: P(win|spam) = (2+1)/(2+3) = 0.6
        model = train_mnb(
            csr([[2, 0, 0], [0, 1, 0]]), ["spam", "ham"], self.schema, alpha=1.0
        )
        win_idx = 0
        assert math.exp(model.log_likelihoods[0, win_idx]) == pytest.approx(0.6, abs=1e-12)
        assert math.exp(model.log_priors[0]) == pytest.approx(0.5, abs=1e-12)

    def test_huge_alpha_flattens_likelihoods(self):
        model = train_mnb(
            csr([[5, 0, 0], [0, 3, 1]]), ["spam", "ham"], self.schema, alpha=1e9
        )
        expected = 1.0 / 3.0
        assert np.allclose(np.exp(model.log_likelihoods), expected, atol=1e-3)

    def test_single_class_rejected(self):
        with pytest.raises(TrainingError, match="absent"):
            train_mnb(csr([[1, 0], [0, 1]]), ["spam", "spam"], self.schema)

    def test_alpha_must_be_positive(self):
        with pytest.raises(TrainingError, match="alpha"):
            train_mnb(csr([[1], [1]]), ["spam", "ham"], self.schema, alpha=0.0)

    def test_posterior_matches_bayes_by_hand(self):
        # docs {["win","win"] -> spam, ["hello"] -> ham}, query ["win"]
        model = train_mnb(
            csr([[2, 0], [0, 1]]), ["spam", "ham"], self.schema, alpha=1.0
        )
        proba = model.predict_proba(csr([[1, 0]]))
        assert proba.shape == (1, 2)
        # P(spam|win) ~ 0.5 * 3/4 ; P(ham|win) ~ 0.5 * 1/3
        expected_spam = (0.5 * (3 / 4)) / (0.5 * (3 / 4) + 0.5 * (1 / 3))
        assert proba[0, 0] == pytest.approx(expected_spam, abs=1e-12)
        assert self.schema.labels[proba[0].argmax()] == "spam"


def enumerate_corpora():
    """Fixed grid: binary weight vectors, 2 classes, bounded size.

    terms=1..2 with 2..4 docs, terms=3 with 2..3 docs, terms=4 with 2 docs.
    """
    grid = [(1, (2, 3, 4)), (2, (2, 3, 4)), (3, (2, 3)), (4, (2,))]
    for n_terms, doc_counts in grid:
        vectors = list(itertools.product((0, 1), repeat=n_terms))
        for n_docs in doc_counts:
            for rows in itertools.product(vectors, repeat=n_docs):
                for labels in itertools.product(("a", "b"), repeat=n_docs):
                    if len(set(labels)) < 2:
                        continue
                    yield rows, labels


class TestBruteForceEquivalence:
    def test_exhaustive_small_cases(self):
        schema = LabelSchema("t", ["a", "b"])
        queries_by_dim = {
            d: [q for q in itertools.product((0, 1, 2), repeat=d)][:5] for d in (1, 2, 3, 4)
        }
        n_cases = 0
        for rows, labels in enumerate_corpora():
            alpha = 1.0
            model = train_mnb(csr(rows), list(labels), schema, alpha=alpha)
            queries = queries_by_dim[len(rows[0])]
            for query, got in zip(queries, model.predict_proba(csr(queries))):
                expected = brute_force_posterior(rows, labels, ("a", "b"), alpha, query)
                assert got[0] == pytest.approx(expected[0], abs=1e-12)
                assert got[1] == pytest.approx(expected[1], abs=1e-12)
            n_cases += 1
        assert n_cases > 5000


def per_class_fit(x, y, k, alpha):
    """Reference: one column sum over each class's rows, as train_mnb did
    before its class sums became one product."""
    n, v = x.shape
    log_priors, log_likelihoods = np.zeros(k), np.zeros((k, v))
    for c in range(k):
        rows = x[np.flatnonzero(y == c)]
        log_priors[c] = np.log(rows.shape[0] / n)
        term_sums = np.asarray(rows.sum(axis=0)).ravel()
        log_likelihoods[c] = np.log(term_sums + alpha) - np.log(term_sums.sum() + alpha * v)
    return log_priors, log_likelihoods


def test_class_sums_bit_equal_to_per_class_loop():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(k, 300))
        v = int(rng.integers(1, 2000))
        x = sparse.random(n, v, density=float(rng.uniform(0.002, 0.3)), format="csr",
                          random_state=int(rng.integers(2**31)))
        y = rng.permutation(np.concatenate([np.arange(k), rng.integers(0, k, n - k)]))
        schema = LabelSchema("t", [f"c{c}" for c in range(k)])
        alpha = float(rng.choice([1e-9, 0.01, 1.0, 3.0]))
        model = train_mnb(x, [f"c{c}" for c in y], schema, alpha=alpha)
        log_priors, log_likelihoods = per_class_fit(x, y, k, alpha)
        assert model.log_priors.tobytes() == log_priors.tobytes()
        assert model.log_likelihoods.tobytes() == log_likelihoods.tobytes()
