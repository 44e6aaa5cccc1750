from __future__ import annotations

import json
import random
import signal
import string
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rescan_extract
from zsbench.dataset import LabelSchema
from zsbench.gateway.parsing import (
    ParsedLabels,
    PayloadError,
    extract_json_payload,
    parse_classification,
    resolve_labels,
)

MALFORMED = Path(__file__).parent / "data" / "malformed_responses.jsonl"


# the perfbench stub's "long" reply: unbalanced braces, prose, then the answer
STUB_LONG_REPLY = (
    "{" * 1500 + ' Sorry, the format slipped. Here it is: {"0": "Books", "1": "Household"}'
)
MIB = 1 << 20
LINEAR_BOUND_S = 10.0  # one pass over 1 MiB takes well under 1 s; the rescan takes hours


def load_malformed_cases() -> list[dict]:
    return [json.loads(line) for line in MALFORMED.read_text().splitlines() if line.strip()]


def _outcome(extract, raw: str):
    try:
        return extract(raw)
    except PayloadError as exc:
        return ("PayloadError", str(exc))


@contextmanager
def _time_limit(seconds: float):
    """Raise TimeoutError in the block once `seconds` of wall time have passed."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestExtractJsonPayload:
    def test_bare_object_untouched(self):
        payload, stripped = extract_json_payload('{"1": "Household"}')
        assert payload == '{"1": "Household"}'
        assert stripped is False

    def test_prose_wrapped(self):
        raw = 'Sure! Here you go: {"1":"spam","2":"ham"} Hope that helps!'
        payload, stripped = extract_json_payload(raw)
        assert payload == '{"1":"spam","2":"ham"}'
        assert stripped is True

    def test_no_object_found(self):
        with pytest.raises(PayloadError, match="no JSON object"):
            extract_json_payload("no json here")

    def test_braces_inside_strings_ignored(self):
        raw = '{"1": "odd } brace", "2": "x { y"} trailing'
        payload, stripped = extract_json_payload(raw)
        assert json.loads(payload) == {"1": "odd } brace", "2": "x { y"}
        assert stripped is True

    def test_escaped_quotes_inside_strings(self):
        raw = '{"1": "quote \\" and } brace"}'
        payload, _ = extract_json_payload(raw)
        assert json.loads(payload)["1"] == 'quote " and } brace'

    def test_unbalanced_prefix_skipped(self):
        raw = '{"oops then {"1": "x"}'
        payload, stripped = extract_json_payload(raw)
        assert json.loads(payload) == {"1": "x"}
        assert stripped is True

    def test_whitespace_only_padding_not_stripped_flag(self):
        payload, stripped = extract_json_payload('   {"1": "x"}  \n')
        assert payload == '{"1": "x"}'
        assert stripped is False

    @settings(max_examples=1000, deadline=None)
    @given(raw=st.text(alphabet='{}"\\ a', max_size=24))
    @example(raw=STUB_LONG_REPLY)
    @example(raw='{"a\\"} "}')  # escaped quote: the string runs on past the brace
    @example(raw='{"a\\\\"}')  # escaped backslash: the quote closes the string
    @example(raw='{"{\\""}')  # a merge of two groups must keep the lower start
    def test_matches_rescan_oracle(self, raw):
        assert _outcome(extract_json_payload, raw) == _outcome(
            rescan_extract.extract_json_payload, raw
        )

    @pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM timers")
    @pytest.mark.parametrize("unit", ["{", '{"'], ids=["braces", "brace-quotes"])
    def test_one_mib_adversarial_reply_within_bound(self, unit):
        raw = unit * (MIB // len(unit))
        with _time_limit(LINEAR_BOUND_S):
            with pytest.raises(PayloadError, match="no JSON object"):
                extract_json_payload(raw)
            payload, stripped = extract_json_payload(raw + ' {"0": "spam"}')
        assert payload == '{"0": "spam"}'
        assert stripped is True


class TestResolveLabels:
    schema = LabelSchema("e-commerce", ["Household", "Books", "Clothing & Accessories", "Electronics"])

    def test_case_fold_repair(self):
        parsed = resolve_labels('{"1":"household"}', [1], self.schema)
        assert parsed.resolved == {1: "Household"}
        assert parsed.diagnostics.repaired_by_case_fold == 1

    def test_extra_and_missing(self):
        parsed = resolve_labels('{"1":"Books","9":"Books"}', [1, 2], self.schema)
        assert parsed.resolved == {1: "Books"}
        assert parsed.diagnostics.extra_index == 1
        assert parsed.diagnostics.missing_index == 1

    def test_unknown_label_not_guessed(self):
        # nothing resolves: the diagnostics say why, and the parse is not counted unparseable
        parsed = resolve_labels('{"1":"Grocery"}', [1], self.schema)
        assert parsed.resolved == {}
        assert parsed.diagnostics.to_json_dict() == {
            "extraneous_text_stripped": 0, "missing_index": 1, "extra_index": 0,
            "unknown_label": 1, "repaired_by_case_fold": 0, "unparseable": 0,
        }
        assert parse_classification('{"1":"Grocery"}', [1], self.schema) == parsed

    def test_not_an_object(self):
        with pytest.raises(PayloadError, match="not a JSON object"):
            resolve_labels('["Books"]', [1], self.schema)

    def test_invalid_json(self):
        with pytest.raises(PayloadError, match="not valid JSON"):
            resolve_labels("{1: Books}", [1], self.schema)


class TestMalformedCorpus:
    schema = LabelSchema("e-commerce", ["Household", "Books", "Clothing & Accessories", "Electronics"])

    def test_corpus_has_enough_cases(self):
        assert len(load_malformed_cases()) >= 20

    @pytest.mark.parametrize("case", load_malformed_cases(), ids=lambda c: c["name"])
    def test_typed_result_with_expected_diagnostics(self, case):
        parsed = parse_classification(case["raw"], case["batch"], self.schema)
        assert isinstance(parsed, ParsedLabels)
        expected_resolved = {int(k): v for k, v in case["expect_resolved"].items()}
        assert parsed.resolved == expected_resolved
        assert parsed.diagnostics.to_json_dict() == case["expect_diagnostics"]

    @pytest.mark.parametrize("case", load_malformed_cases(), ids=lambda c: c["name"])
    def test_conservation(self, case):
        parsed = parse_classification(case["raw"], case["batch"], self.schema)
        assert len(parsed.resolved) + parsed.diagnostics.missing_index == len(case["batch"])


def _mutate(rng: random.Random, text: str) -> str:
    ops = rng.randint(0, 6)
    chars = list(text)
    for _ in range(ops):
        if not chars:
            break
        op = rng.randint(0, 2)
        pos = rng.randrange(len(chars))
        if op == 0:
            del chars[pos]
        elif op == 1:
            chars.insert(pos, rng.choice('{}[]":,\\\x00abcé🎉'))
        else:
            chars[pos] = rng.choice(string.printable)
    return "".join(chars)


class TestFuzz:
    schema = LabelSchema("t", ["spam", "ham"])

    def test_ten_thousand_mutated_responses_never_crash(self):
        rng = random.Random(123)
        seeds = [
            '{"1": "spam", "2": "ham"}',
            'Sure: {"1":"spam"} done',
            '{"1": {"x": [1,2]}, "2": "ham"}',
            "no json at all",
            '{"1": "spam"',
            "{}",
            '[1,2,3]',
        ]
        for i in range(10_000):
            raw = _mutate(rng, rng.choice(seeds))
            batch = list(range(rng.randint(1, 5)))
            parsed = parse_classification(raw, batch, self.schema)
            assert isinstance(parsed, ParsedLabels)
            assert set(parsed.resolved) <= set(batch)
            assert len(parsed.resolved) + parsed.diagnostics.missing_index == len(batch)

    @settings(max_examples=500, deadline=None)
    @given(raw=st.text(max_size=200), batch_size=st.integers(min_value=1, max_value=8))
    def test_arbitrary_text_never_crashes(self, raw, batch_size):
        batch = list(range(batch_size))
        parsed = parse_classification(raw, batch, self.schema)
        assert set(parsed.resolved) <= set(batch)
        assert all(v in self.schema.labels for v in parsed.resolved.values())
        assert len(parsed.resolved) + parsed.diagnostics.missing_index == len(batch)
