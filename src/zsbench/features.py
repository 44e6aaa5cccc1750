"""TF-IDF feature extraction: vocabulary fitting and sparse vectorization.

An experiment fits one vectorizer and turns its train and test documents
into two CSR matrices, one row per document, that every baseline shares.
The vocabulary is built from training documents only. IDF uses the smoothed
form ln((1 + N) / (1 + df)) + 1 and rows are L2-normalized by default,
so a term present in every training document still contributes weight 1
per occurrence before normalization.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain, repeat
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np
    from scipy import sparse


class FeatureError(ValueError):
    """Raised for unusable training input."""


class Vectorizer:
    """Fitted TF-IDF vectorizer: term -> column, and the idf of each column."""

    def __init__(self, vocabulary: dict[str, int], idf: np.ndarray, l2_normalize: bool):
        self.vocabulary = vocabulary
        self.idf = idf
        self.l2_normalize = l2_normalize

    @property
    def dim(self) -> int:
        return len(self.vocabulary)

    def transform_all(self, docs: list[list[str]]) -> sparse.csr_matrix:
        """TF-IDF rows for the token lists, in input order.

        Out-of-vocabulary tokens are ignored, so all-OOV or empty documents
        yield zero rows.
        """
        # here, so a run without baselines never loads numpy or scipy
        import numpy as np
        from scipy import sparse

        # one entry of 1 per token, summed per (row, column) by scipy, which
        # sorts each row's columns; an out-of-vocabulary token goes to an
        # extra last column, dropped afterwards
        n_docs, dim = len(docs), self.dim
        indptr = np.zeros(n_docs + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, docs), np.int64, n_docs), out=indptr[1:])
        tokens = chain.from_iterable(docs)
        cols = np.fromiter(map(self.vocabulary.get, tokens, repeat(dim)), np.int32, indptr[-1])
        counts = sparse.csr_matrix((np.ones(len(cols)), cols, indptr), shape=(n_docs, dim + 1))
        counts.sum_duplicates()
        x = counts[:, :dim]
        del counts
        x.data *= self.idf[x.indices]
        if self.l2_normalize:
            data, bounds = x.data, x.indptr.tolist()
            for start, end in zip(bounds, bounds[1:]):
                if end > start:
                    seg = data[start:end]
                    seg /= math.sqrt(seg @ seg)
        return x


def fit_vectorizer(
    train_docs: list[list[str]], min_df: int = 2, l2_normalize: bool = True
) -> Vectorizer:
    """Build the vocabulary and IDF table from training documents only.

    Terms are indexed in sorted order; terms appearing in fewer than
    `min_df` documents are pruned.
    """
    if min_df < 1:
        raise FeatureError(f"min_df must be positive, got {min_df}")
    if not train_docs:
        raise FeatureError("empty training set")
    if all(not doc for doc in train_docs):
        raise FeatureError("all training documents are empty")

    doc_freq: Counter[str] = Counter()
    for doc in train_docs:
        doc_freq.update(set(doc))
    kept = sorted(t for t, df in doc_freq.items() if df >= min_df)
    if not kept:
        raise FeatureError(f"all terms pruned at min_df={min_df}")

    import numpy as np

    n = len(train_docs)
    idf = np.array([math.log((1 + n) / (1 + doc_freq[t])) + 1.0 for t in kept])
    return Vectorizer({term: i for i, term in enumerate(kept)}, idf, l2_normalize)
