from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zsbench.features import FeatureError, fit_vectorizer


def idf(vectorizer, term: str) -> float:
    return float(vectorizer.idf[vectorizer.vocabulary[term]])


def transform_one(vectorizer, tokens) -> dict[int, float]:
    """The single row of transform_all([doc]) as {column: weight}."""
    row = vectorizer.transform_all([list(tokens)])
    assert row.shape == (1, vectorizer.dim)
    return dict(zip(row.indices.tolist(), row.data.tolist()))


class TestFitVectorizer:
    def test_idf_formula_by_hand(self):
        v = fit_vectorizer([["spam", "win"], ["ham"]], min_df=1)
        assert v.dim == 3
        assert idf(v, "spam") == pytest.approx(math.log(3 / 2) + 1, abs=1e-12)

    def test_min_df_prunes_everything(self):
        with pytest.raises(FeatureError, match="pruned"):
            fit_vectorizer([["spam", "win"], ["ham"]], min_df=2)

    def test_term_in_every_doc_has_idf_one(self):
        v = fit_vectorizer([["common", "x"], ["common", "y"]], min_df=1)
        assert idf(v, "common") == pytest.approx(1.0, abs=1e-15)

    def test_empty_training_set(self):
        with pytest.raises(FeatureError, match="empty training set"):
            fit_vectorizer([], min_df=1)

    def test_all_docs_empty(self):
        with pytest.raises(FeatureError, match="all training documents are empty"):
            fit_vectorizer([[], []], min_df=1)

    def test_df_counts_documents_not_occurrences(self):
        v = fit_vectorizer([["spam", "spam", "spam"], ["ham"]], min_df=1)
        # smoothed idf ln((1 + N) / (1 + df)) + 1 with N = 2 pins df = 1, not 3
        assert idf(v, "spam") == pytest.approx(math.log(3 / 2) + 1, abs=1e-12)
        assert idf(v, "spam") == idf(v, "ham")


class TestTransform:
    def test_repeated_token_normalizes_to_one(self):
        v = fit_vectorizer([["spam", "win"], ["ham"]], min_df=1)
        row = transform_one(v, ("spam", "spam"))
        assert list(row) == [v.vocabulary["spam"]]
        assert row[v.vocabulary["spam"]] == pytest.approx(1.0, abs=1e-12)

    def test_oov_only_gives_zero_vector(self):
        v = fit_vectorizer([["spam"], ["spam", "ham"]], min_df=1)
        assert transform_one(v, ("unseen", "tokens")) == {}

    def test_empty_doc_gives_zero_vector(self):
        v = fit_vectorizer([["spam"], ["ham"]], min_df=1)
        assert transform_one(v, ()) == {}

    def test_weights_without_normalization(self):
        v = fit_vectorizer([["spam", "win"], ["ham"]], min_df=1, l2_normalize=False)
        row = transform_one(v, ("spam", "spam", "win"))
        expected_spam = 2 * (math.log(3 / 2) + 1)
        assert row[v.vocabulary["spam"]] == pytest.approx(expected_spam, abs=1e-12)

    def test_hand_computed_five_doc_table(self):
        # oracle: tf-idf computed from first principles, frozen below
        corpus = [
            ["win", "cash", "now"],
            ["win", "win", "prize"],
            ["meeting", "now"],
            ["cash", "prize", "cash"],
            ["meeting", "tomorrow", "now"],
        ]
        n = 5
        df = {"win": 2, "cash": 2, "now": 3, "prize": 2, "meeting": 2, "tomorrow": 1}
        v = fit_vectorizer(corpus, min_df=1, l2_normalize=False)
        for doc_tokens in corpus:
            got = transform_one(v, doc_tokens)
            for term in set(doc_tokens):
                term_idf = math.log((1 + n) / (1 + df[term])) + 1
                expected = doc_tokens.count(term) * term_idf
                assert got[v.vocabulary[term]] == pytest.approx(expected, abs=1e-9)

    def test_transform_does_not_mutate_vocabulary(self):
        v = fit_vectorizer([["spam"], ["spam", "ham"]], min_df=1)
        vocabulary = dict(v.vocabulary)
        weights = v.idf.copy()
        transform_one(v, ("new", "words", "spam"))
        assert v.vocabulary == vocabulary
        assert np.array_equal(v.idf, weights)

    @settings(max_examples=150, deadline=None)
    @given(
        tokens=st.lists(
            st.lists(st.sampled_from("abcdef"), min_size=1, max_size=6).map(
                lambda xs: "".join(xs)
            ),
            max_size=12,
        )
    )
    def test_nonzero_vectors_have_unit_norm(self, tokens):
        v = fit_vectorizer([["a", "b"], ["b", "c"], ["a", "c"]], min_df=1)
        row = transform_one(v, tokens)
        if row:
            assert math.sqrt(sum(w * w for w in row.values())) == pytest.approx(1.0, abs=1e-9)

    def test_transform_all_stacks_rows_in_input_order(self):
        v = fit_vectorizer([["spam", "win"], ["ham", "win"]], min_df=1)
        docs = [["win", "ham"], [], ["unseen"], ["spam"]]
        m = v.transform_all(docs)
        assert m.shape == (4, v.dim)
        for i, doc in enumerate(docs):
            assert np.array_equal(m[i].toarray(), v.transform_all([doc]).toarray())
        assert m[1].nnz == m[2].nnz == 0
        assert m[3, v.vocabulary["spam"]] == pytest.approx(1.0, abs=1e-12)


class TestFeatureVector:
    """Each row of transform_all's CSR matrix is one document's feature vector."""

    @staticmethod
    def rows(docs):
        v = fit_vectorizer([list("abcd"), list("cdef"), list("a")], min_df=1)
        m = v.transform_all(docs)
        assert m.shape == (len(docs), v.dim)
        return v, [m.indices[s:e] for s, e in zip(m.indptr, m.indptr[1:])]

    @settings(max_examples=100, deadline=None)
    @given(
        docs=st.lists(st.lists(st.sampled_from("abcdefgh"), max_size=10), max_size=8)
    )
    def test_indices_must_increase(self, docs):
        _, rows = self.rows(docs)
        for cols in rows:
            assert (np.diff(cols) > 0).all()

    @settings(max_examples=100, deadline=None)
    @given(
        docs=st.lists(st.lists(st.sampled_from("abcdefgh"), max_size=10), max_size=8)
    )
    def test_index_range_checked(self, docs):
        v, rows = self.rows(docs)
        for cols in rows:
            assert ((cols >= 0) & (cols < v.dim)).all()
