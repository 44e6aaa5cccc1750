from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zsbench.dataset import (
    CorpusError,
    LabeledCorpus,
    LabelSchema,
    class_distribution,
    load_corpus,
    stratified_split,
)


def make_corpus(counts: dict[str, int], schema: LabelSchema) -> LabeledCorpus:
    labels = tuple(label for label, n in counts.items() for _ in range(n))
    return LabeledCorpus(schema, tuple(f"doc {i}" for i in range(len(labels))), labels)


def ids(corpus: LabeledCorpus) -> set[int]:
    """A document's id is its row in the parallel texts and labels tuples."""
    assert len(corpus.texts) == len(corpus.labels)
    return set(range(len(corpus.texts)))


def subset(corpus: LabeledCorpus, row_ids: list[int]) -> LabeledCorpus:
    return LabeledCorpus(
        corpus.schema,
        tuple(corpus.texts[i] for i in row_ids),
        tuple(corpus.labels[i] for i in row_ids),
    )


class TestSchema:
    def test_needs_two_labels(self):
        with pytest.raises(CorpusError, match="at least 2"):
            LabelSchema("t", ["only"])

    def test_rejects_casefold_duplicates(self):
        with pytest.raises(CorpusError, match="duplicate"):
            LabelSchema("t", ["Spam", "spam"])

    def test_canonicalize_trims_and_folds(self):
        schema = LabelSchema("t", ["positive", "neutral", "negative"])
        assert schema.canonicalize("Positive ") == "positive"
        assert schema.canonicalize("NEUTRAL") == "neutral"
        assert schema.canonicalize("bogus") is None

    def test_codes_are_schema_positions(self):
        schema = LabelSchema("t", ["positive", "neutral", "negative"])
        assert schema.codes(["negative", "positive", "neutral", "positive"]) == [2, 0, 1, 0]
        assert schema.codes(label for label in ("neutral",)) == [1]
        assert schema.codes([]) == []

    @pytest.mark.parametrize("label", ["bogus", "Positive", " positive"])
    def test_codes_reject_a_label_outside_the_schema(self, label):
        schema = LabelSchema("t", ["positive", "neutral", "negative"])
        with pytest.raises(KeyError):
            schema.codes(["neutral", label])


class TestLoadCorpus:
    def test_csv_two_docs(self, tmp_path, spam_schema):
        path = tmp_path / "corpus.csv"
        path.write_text(
            'text,label\n"free entry win prize",spam\n"see you at 5",ham\n'
        )
        corpus = load_corpus(path, "csv", "text", "label", spam_schema)
        assert len(corpus) == 2
        assert corpus.texts == ("free entry win prize", "see you at 5")
        assert corpus.labels == ("spam", "ham")

    def test_jsonl_missing_label_field_names_line(self, tmp_path, spam_schema):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            json.dumps({"text": "hello", "label": "ham"})
            + "\n"
            + json.dumps({"text": "no label here"})
            + "\n"
        )
        with pytest.raises(CorpusError, match="line 2.*'label'"):
            load_corpus(path, "jsonl", "text", "label", spam_schema)

    def test_label_normalized_against_schema(self, tmp_path):
        schema = LabelSchema("sentiment", ["positive", "neutral", "negative"])
        path = tmp_path / "corpus.csv"
        path.write_text('text,label\nnice day,"Positive "\nso so,neutral\n')
        corpus = load_corpus(path, "csv", "text", "label", schema)
        assert corpus.labels == ("positive", "neutral")

    def test_unknown_label_reports_value_and_line(self, tmp_path, spam_schema):
        path = tmp_path / "corpus.csv"
        path.write_text("text,label\nhello,ham\nweird,phishing\n")
        with pytest.raises(CorpusError, match="line 3.*'phishing'"):
            load_corpus(path, "csv", "text", "label", spam_schema)

    def test_missing_file(self, spam_schema):
        with pytest.raises(CorpusError, match="not found"):
            load_corpus("/nonexistent/corpus.csv", "csv", "text", "label", spam_schema)

    def test_invalid_jsonl_line(self, tmp_path, spam_schema):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"text": "ok", "label": "ham"}\nnot json\n')
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(path, "jsonl", "text", "label", spam_schema)

    def test_empty_text_rejected(self, tmp_path, spam_schema):
        path = tmp_path / "corpus.csv"
        path.write_text('text,label\n"   ",ham\n')
        with pytest.raises(CorpusError, match="empty text"):
            load_corpus(path, "csv", "text", "label", spam_schema)


class TestClassDistribution:
    def test_simple_counts(self, spam_schema):
        corpus = make_corpus({"spam": 2, "ham": 3}, spam_schema)
        assert class_distribution(corpus) == {"ham": 3, "spam": 2}

    def test_empty_corpus_all_zero(self, spam_schema):
        corpus = LabeledCorpus(spam_schema, (), ())
        assert class_distribution(corpus) == {"ham": 0, "spam": 0}


class TestStratifiedSplit:
    covid_schema = LabelSchema("covid tweets", ["negative", "neutral", "positive"])

    def test_covid_class_counts_scaled(self):
        corpus = make_corpus(
            {"negative": 650, "neutral": 240, "positive": 610}, self.covid_schema
        )
        _, test = stratified_split(corpus, 150, seed=3)
        assert class_distribution(subset(corpus, test)) == {
            "negative": 65, "neutral": 24, "positive": 61
        }

    def test_full_test_split(self, spam_schema):
        corpus = make_corpus({"ham": 4, "spam": 2}, spam_schema)
        train, test = stratified_split(corpus, 6, seed=0)
        assert train == []
        assert set(test) == ids(corpus)

    def test_deterministic(self, spam_schema):
        corpus = make_corpus({"ham": 40, "spam": 25}, spam_schema)
        a = stratified_split(corpus, 20, seed=99)
        b = stratified_split(corpus, 20, seed=99)
        assert a == b

    def test_different_seed_changes_members(self, spam_schema):
        corpus = make_corpus({"ham": 40, "spam": 25}, spam_schema)
        a = stratified_split(corpus, 20, seed=1)
        b = stratified_split(corpus, 20, seed=2)
        assert a[1] != b[1]

    def test_test_size_too_large(self, spam_schema):
        corpus = make_corpus({"ham": 2, "spam": 2}, spam_schema)
        with pytest.raises(CorpusError, match="exceeds"):
            stratified_split(corpus, 5, seed=0)

    def test_partition_on_large_random_corpus(self):
        rng = random.Random(7)
        schema = LabelSchema("big", ["a", "b", "c", "d"])
        labels = tuple(rng.choice(schema.labels) for _ in range(10_000))
        corpus = LabeledCorpus(schema, tuple(f"doc {i}" for i in range(len(labels))), labels)
        train, test = stratified_split(corpus, 1500, seed=5)
        assert set(train) | set(test) == ids(corpus)
        assert not (set(train) & set(test))
        assert len(test) == 1500

    @settings(max_examples=60, deadline=None)
    @given(
        counts=st.lists(st.integers(min_value=1, max_value=60), min_size=2, max_size=5),
        seed=st.integers(min_value=0, max_value=2**63 - 1),
        data=st.data(),
    )
    def test_partition_and_stratification_properties(self, counts, seed, data):
        labels = [f"class{i}" for i in range(len(counts))]
        schema = LabelSchema("t", labels)
        corpus = make_corpus(dict(zip(labels, counts)), schema)
        test_size = data.draw(st.integers(min_value=0, max_value=len(corpus)))
        train, test = stratified_split(corpus, test_size, seed=seed)

        assert set(train) | set(test) == ids(corpus)
        assert not (set(train) & set(test))
        assert train == sorted(train)
        assert test == sorted(test)
        assert sorted(train + test) == list(range(len(corpus)))

        if test_size > 0:
            n = len(corpus)
            dist = class_distribution(subset(corpus, test))
            full = class_distribution(corpus)
            for label in labels:
                assert abs(dist[label] / test_size - full[label] / n) <= 1.0 / test_size
