"""The plain-Python label metrics against the numpy oracle, bit for bit.

Floats are compared with `==` and by their hex form, so a sign of zero or a
last-bit difference fails too. The examples cover each branch of numpy's
pairwise summation (under 8 values, up to 128, above 128 with a split that
is not at n // 2) and a list whose sum differs between Python 3.12's
compensated `sum()` and numpy.
"""

from __future__ import annotations

from hypothesis import assume, example, given
from hypothesis import strategies as st

import metrics_oracle as oracle
from zsbench import metrics
from zsbench.dataset import LabelSchema
from zsbench.metrics import ConfusionMatrix


def assert_bit_equal(new, old) -> None:
    assert type(new) is float
    assert new == old
    assert new.hex() == float(old).hex()


@st.composite
def confusion_matrices(draw) -> ConfusionMatrix:
    k = draw(st.integers(2, 12))  # a schema has at least two labels
    cells = draw(st.lists(st.integers(0, 10**6), min_size=k * k, max_size=k * k))
    schema = LabelSchema("t", [f"c{i}" for i in range(k)])
    return ConfusionMatrix(schema, tuple(tuple(cells[i * k : (i + 1) * k]) for i in range(k)))


@given(confusion_matrices())
@example(ConfusionMatrix(LabelSchema("t", ["a", "b"]), ((0, 5), (0, 0))))
def test_label_metrics_match_numpy(cm):
    assume(cm.total > 0)
    assert_bit_equal(metrics.accuracy(cm), oracle.accuracy(cm))
    assert_bit_equal(metrics.macro_f1(cm), oracle.macro_f1(cm))
    assert_bit_equal(metrics.mcc(cm), oracle.mcc(cm))
    new, old = metrics.per_class_prf(cm), oracle.per_class_prf(cm)
    assert list(new) == list(old) == list(cm.schema.labels)
    for label, scores in new.items():
        assert list(scores) == list(old[label])
        for name, value in scores.items():
            assert_bit_equal(value, old[label][name])


def spread(n: int) -> list[float]:
    """n values of mixed sign and magnitude, whose sum depends on the order."""
    return [(-1) ** i * 10.0 ** (i % 17 - 8) / 3 for i in range(n)]


MIXED_FLOATS = st.one_of(
    st.floats(min_value=-1e100, max_value=1e100),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-1.0, 1.0), st.integers(-20, 20)),
)


@given(st.lists(MIXED_FLOATS, min_size=1, max_size=300))
@example(spread(7))
@example(spread(8))
@example(spread(128))
@example(spread(129))
@example(spread(300))
@example([1.0, 1e100, 1.0, -1e100])
@example([-0.0] * 9)
def test_aggregate_runs_matches_numpy(values):
    new, old = metrics.aggregate_runs(values, "m"), oracle.aggregate_runs(values, "m")
    assert new.values == old.values
    assert_bit_equal(new.mean, old.mean)
    if len(values) == 1:
        assert new.std is None and old.std is None
    else:
        assert_bit_equal(new.std, old.std)
