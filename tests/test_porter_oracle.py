"""The table-driven stemmer against the endswith-scanning one in porter_oracle.py."""

from __future__ import annotations

import csv
from functools import reduce

from hypothesis import example, given, settings
from hypothesis import strategies as st

import porter_oracle
from conftest import DATA_DIR
from zsbench.porter import stem
from zsbench.preprocess import CleaningPolicy, preprocess_corpus

SUFFIXES = [
    *(suffix for suffix, _ in porter_oracle._STEP2_RULES + porter_oracle._STEP3_RULES),
    *porter_oracle._STEP4_SUFFIXES,
]
# each suffix alone and after one letter leaves an empty or one-letter stem
EDGE_WORDS = [
    *SUFFIXES,
    *(letter + suffix for suffix in SUFFIXES for letter in "by"),
    "yy", "syzygy", "yay",
    "feed", "agreed", "hopping", "filing",
]


ALPHABET = "aeiouybcdlmnrstz"
# random strings, and random stems ahead of a suffix some rule group strips
WORDS = st.text(alphabet=ALPHABET, min_size=1, max_size=14) | st.builds(
    lambda stem_, suffix: stem_ + suffix,
    st.text(alphabet=ALPHABET, max_size=8),
    st.sampled_from(["sses", "ies", "ss", "s", "eed", "ed", "ing", "y", "e", "ll", *SUFFIXES]),
)


def with_examples(words):
    return lambda test: reduce(lambda t, word: example(word)(t), words, test)


@settings(max_examples=3000, deadline=None)
@given(word=WORDS)
@with_examples(EDGE_WORDS)
def test_stem_matches_oracle(word):
    assert stem(word) == porter_oracle.stem(word)


def test_stem_matches_oracle_on_fixture_corpus():
    with (DATA_DIR / "fixture_corpus.csv").open(encoding="utf-8", newline="") as fh:
        texts = [row["text"] for row in csv.DictReader(fh)]
    tokens = {token for text in texts for token in text.lower().split()}
    # every token the rules leave, stop words included
    kept = CleaningPolicy(remove_stopwords=False, apply_stemming=False)
    tokens.update(token for doc in preprocess_corpus(texts, kept) for token in doc)
    assert len(tokens) > 100
    assert [stem(t) for t in sorted(tokens)] == [porter_oracle.stem(t) for t in sorted(tokens)]
