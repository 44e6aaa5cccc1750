from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zsbench.dataset import LabelSchema
from zsbench.metrics import (
    ConfusionMatrix,
    MetricsError,
    accuracy,
    aggregate_runs,
    auc_ovr_macro,
    binary_auc,
    build_report,
    confusion_matrix,
    macro_f1,
    mcc,
    per_class_prf,
)

AB = LabelSchema("t", ["a", "b"])


def brute_force_auc(scores, positive):
    """Oracle: fraction of (pos, neg) pairs ranked correctly, ties half."""
    pos = [s for s, p in zip(scores, positive) if p]
    neg = [s for s, p in zip(scores, positive) if not p]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestConfusionMatrix:
    def test_direct_count(self):
        cm = confusion_matrix([0, 0, 1], [0, 1, 1], AB)
        assert cm.counts == ((1, 1), (0, 1))

    def test_perfect_predictions_diagonal(self):
        cm = confusion_matrix([0, 1, 1], [0, 1, 1], AB)
        assert cm.counts == ((1, 0), (0, 2))
        assert accuracy(cm) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(MetricsError, match="length"):
            confusion_matrix([0], [0, 1], AB)

    @pytest.mark.parametrize("truth, pred", [([0], [2]), ([2], [0]), ([-1], [0]), ([0], [-1])])
    def test_code_outside_the_schema(self, truth, pred):
        with pytest.raises(MetricsError, match="outside the schema"):
            confusion_matrix(truth, pred, AB)

    def test_all_negative_on_covid_composition(self):
        schema = LabelSchema("covid", ["negative", "neutral", "positive"])
        truth = [0] * 65 + [1] * 24 + [2] * 61
        pred = [0] * 150
        cm = confusion_matrix(truth, pred, schema)
        assert accuracy(cm) == pytest.approx(65 / 150, abs=1e-12)


class TestScalarMetrics:
    def test_macro_f1_hand_computed(self):
        cm = ConfusionMatrix(AB, ((1, 1), (0, 2)))
        prf = per_class_prf(cm)
        assert prf["a"]["precision"] == pytest.approx(1.0)
        assert prf["a"]["recall"] == pytest.approx(0.5)
        assert prf["a"]["f1"] == pytest.approx(2 / 3, abs=1e-12)
        assert prf["b"]["precision"] == pytest.approx(2 / 3, abs=1e-12)
        assert prf["b"]["recall"] == pytest.approx(1.0)
        assert prf["b"]["f1"] == pytest.approx(0.8, abs=1e-12)
        assert macro_f1(cm) == pytest.approx(11 / 15, abs=1e-9)

    def test_perfect_matrix(self):
        cm = ConfusionMatrix(AB, ((3, 0), (0, 2)))
        assert accuracy(cm) == 1.0
        assert macro_f1(cm) == 1.0
        assert mcc(cm) == pytest.approx(1.0, abs=1e-12)

    def test_balanced_wrong_gives_zero_mcc(self):
        cm = ConfusionMatrix(AB, ((1, 1), (1, 1)))
        assert mcc(cm) == 0.0

    def test_inverted_predictions_give_negative_mcc(self):
        cm = ConfusionMatrix(AB, ((0, 3), (2, 0)))
        assert mcc(cm) == pytest.approx(-1.0, abs=1e-12)

    def test_zero_division_conventions(self):
        # class b never predicted and never true: f1 = 0, not NaN
        cm = ConfusionMatrix(AB, ((4, 0), (0, 0)))
        assert per_class_prf(cm)["b"]["f1"] == 0.0
        assert mcc(cm) == 0.0

    @settings(max_examples=150, deadline=None)
    @given(
        counts=st.lists(
            st.lists(st.integers(min_value=0, max_value=30), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    def test_metric_ranges(self, counts):
        if sum(map(sum, counts)) == 0:
            return
        schema = LabelSchema("t3", ["a", "b", "c"])
        cm = ConfusionMatrix(schema, tuple(map(tuple, counts)))
        assert 0.0 <= accuracy(cm) <= 1.0
        assert 0.0 <= macro_f1(cm) <= 1.0
        assert -1.0 <= mcc(cm) <= 1.0


class TestAuc:
    def test_binary_example(self):
        scores = np.array([0.9, 0.6, 0.7, 0.2])
        positive = np.array([True, True, False, False])
        assert binary_auc(scores, positive) == pytest.approx(0.75, abs=1e-12)

    def test_perfect_ordering(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        positive = np.array([True, True, False, False])
        assert binary_auc(scores, positive) == 1.0

    def test_all_ties_give_half(self):
        scores = np.array([0.5, 0.5, 0.5, 0.5])
        positive = np.array([True, False, True, False])
        assert binary_auc(scores, positive) == pytest.approx(0.5, abs=1e-12)

    def test_macro_ovr_with_skipped_class(self):
        schema = LabelSchema("t3", ["a", "b", "c"])
        truth = schema.codes(["a", "a", "b"])
        scores = np.array([(0.8, 0.1, 0.1), (0.6, 0.3, 0.1), (0.2, 0.7, 0.1)])
        # class c has no positives: skipped, macro over a and b only
        assert auc_ovr_macro(truth, scores) == pytest.approx(1.0)

    def test_all_classes_skipped_is_error(self):
        truth = [0, 0]
        scores = np.array([(1.0, 0.0), (1.0, 0.0)])
        with pytest.raises(MetricsError, match="skipped"):
            auc_ovr_macro(truth, scores)

    def test_mann_whitney_equals_brute_force_on_random_sets(self):
        rng = random.Random(4242)
        for _ in range(400):
            n = rng.randint(2, 50)
            scores = np.array([rng.choice([0.1, 0.25, 0.5, 0.8, rng.random()]) for _ in range(n)])
            positive = np.array([rng.random() < 0.5 for _ in range(n)])
            if positive.all() or not positive.any():
                continue
            expected = brute_force_auc(scores, positive)
            assert binary_auc(scores, positive) == pytest.approx(expected, abs=1e-12)

    def test_permutation_invariance(self):
        rng = random.Random(9)
        schema = LabelSchema("t3", ["a", "b", "c"])
        truth = [rng.randrange(3) for _ in range(30)]
        truth[:3] = [0, 1, 2]
        scores = []
        for _ in range(30):
            raw = [rng.random() for _ in range(3)]
            total = sum(raw)
            scores.append([x / total for x in raw])
        scores = np.array(scores)
        pred = scores.argmax(axis=1)
        base_auc = auc_ovr_macro(truth, scores)
        base_cm = confusion_matrix(truth, pred, schema)
        order = list(range(30))
        rng.shuffle(order)
        truth2 = [truth[i] for i in order]
        assert auc_ovr_macro(truth2, scores[order]) == pytest.approx(base_auc, abs=1e-12)
        cm2 = confusion_matrix(truth2, pred[order], schema)
        assert cm2.counts == base_cm.counts
        assert mcc(cm2) == pytest.approx(mcc(base_cm), abs=1e-12)


class TestBuildReport:
    def test_label_only_report_has_no_auc(self):
        report = build_report([0, 1], [0, 1], AB, scores=None)
        assert report.auc is None
        assert report.acc == 1.0

    def test_report_with_scores_has_auc(self):
        scores = np.array([(0.9, 0.1), (0.2, 0.8)])
        report = build_report([0, 1], [0, 1], AB, scores=scores)
        assert report.auc == pytest.approx(1.0)

    @pytest.mark.parametrize("scores", [np.full((2, 3), 1 / 3), np.array([0.9, 0.2])])
    def test_scores_must_have_one_column_per_label(self, scores):
        with pytest.raises(MetricsError, match="does not match schema"):
            build_report([0, 1], [0, 1], AB, scores=scores)

    def test_json_round_trip_shape(self):
        report = build_report([0, 1, 0], [0, 1, 1], AB)
        data = report.to_json_dict()
        assert data["n_items"] == 3
        assert data["confusion"] == [[1, 1], [0, 1]]
        assert data["auc"] is None


class TestAggregateRuns:
    def test_constant_runs(self):
        agg = aggregate_runs([0.55, 0.55, 0.55], metric="acc")
        assert agg.mean == pytest.approx(0.55)
        assert agg.std == pytest.approx(0.0)
        assert agg.format() == "0.5500±0.0000"

    def test_two_values_hand_computed(self):
        agg = aggregate_runs([0.52, 0.56])
        assert agg.mean == pytest.approx(0.54, abs=1e-12)
        assert agg.std == pytest.approx(0.028284271247461906, abs=1e-9)

    def test_paper_style_formatting(self):
        agg = aggregate_runs([0.5413 - 0.0099, 0.5413, 0.5413 + 0.0099])
        assert agg.format() == "0.5413±0.0099"

    def test_single_value_has_no_std(self):
        agg = aggregate_runs([0.9])
        assert agg.std is None
        assert agg.format() == "0.9000"

    def test_empty_rejected(self):
        with pytest.raises(MetricsError):
            aggregate_runs([])
