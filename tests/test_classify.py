from __future__ import annotations

import _thread
import json
import sys
import threading
import time

import pytest

from zsbench.gateway import classify as gateway_classify
from zsbench.gateway.classify import (
    AuditLog,
    ClassificationAborted,
    ClassificationPool,
    classify_corpus,
    replay_audit,
)
from zsbench.gateway.client import AuthenticationError, LlmRunConfig, ProviderError
from zsbench.gateway.mock import KeywordRuleProvider
from conftest import (
    ECOMMERCE_TASK,
    FIXTURE_DEFAULT_LABEL,
    FIXTURE_RULES,
    CountingProvider,
    ScriptedProvider,
)

FAST = dict(backoff_base_s=0.001)
ONCE = dict(FAST, repeat_count=1)


def make_docs(texts: list[str]) -> list[tuple[int, str]]:
    """(doc id, text) pairs with ids 0..N-1."""
    return list(enumerate(texts))


def classify_once(docs, schema, config, provider, audit=None):
    """The outcome of an entry whose config asks for a single repeat."""
    assert config.repeat_count == 1
    with ClassificationPool(docs, schema, ECOMMERCE_TASK, config, provider, audit=audit) as pool:
        return classify_corpus(pool, 0)


class TestBatching:
    def test_batch_count_and_order(self, ecommerce_schema):
        docs = make_docs([f"item number {i} with usb" for i in range(150)])
        provider = CountingProvider(
            KeywordRuleProvider(ecommerce_schema, FIXTURE_RULES, FIXTURE_DEFAULT_LABEL)
        )
        config = LlmRunConfig(model="mock", batch_size=25, **ONCE)
        outcome = classify_once(docs, ecommerce_schema, config, provider)
        assert provider.calls == 6
        assert outcome.n_requests == 6
        assert outcome.doc_ids == tuple(range(150))
        assert len(outcome.resolved) == 150
        assert outcome.resolved[0] == "Electronics"

    def test_single_partial_batch(self, ecommerce_schema):
        docs = make_docs(["a novel", "usb hub", "cotton shirt"])
        provider = CountingProvider(
            KeywordRuleProvider(ecommerce_schema, FIXTURE_RULES, FIXTURE_DEFAULT_LABEL)
        )
        config = LlmRunConfig(model="mock", batch_size=25, **ONCE)
        outcome = classify_once(docs, ecommerce_schema, config, provider)
        assert provider.calls == 1
        assert outcome.resolved == {0: "Books", 1: "Electronics", 2: "Clothing & Accessories"}


class TestMockAccuracyOracle:
    def test_end_to_end_accuracy_equals_direct_rule(self, ecommerce_schema):
        texts = [
            "premium kitchen towel set",
            "bestselling novel by a famous author",
            "denim jacket slim fit",
            "wireless headphones with battery",
            "decorative lamp for the living room",  # no rule keyword -> default
            "paperback fiction",
            "usb cable pack",
            "cotton trousers",
        ]
        gold = [
            "Household",
            "Books",
            "Clothing & Accessories",
            "Electronics",
            "Electronics",  # will be mislabelled Household by the default rule
            "Books",
            "Electronics",
            "Clothing & Accessories",
        ]
        docs = make_docs(texts)
        provider = KeywordRuleProvider(ecommerce_schema, FIXTURE_RULES, FIXTURE_DEFAULT_LABEL)
        config = LlmRunConfig(model="mock", batch_size=3, **ONCE)
        outcome = classify_once(docs, ecommerce_schema, config, provider)

        # oracle: apply the keyword rule directly to each document
        expected_correct = 0
        for text, gold_label in zip(texts, gold):
            lowered = text.lower()
            predicted = FIXTURE_DEFAULT_LABEL
            for label in ecommerce_schema.labels:
                hits = [kw for kw in FIXTURE_RULES.get(label, []) if kw in lowered]
                if hits:
                    predicted = label
                    break
            if predicted == gold_label:
                expected_correct += 1

        got_correct = sum(
            1 for doc_id, label in enumerate(gold) if outcome.resolved.get(doc_id) == label
        )
        assert got_correct == expected_correct
        assert expected_correct == 7  # the lamp doc falls back to Household


class TestReAskAndFallback:
    def test_reask_resolves_missing_entries(self, ecommerce_schema):
        docs = make_docs(["usb hub", "a novel", "cotton shirt"])
        # first reply forgets doc 1; the re-ask answers it
        provider = ScriptedProvider(
            [
                '{"0": "Electronics", "2": "Clothing & Accessories"}',
                '{"1": "Books"}',
            ]
        )
        config = LlmRunConfig(model="m", batch_size=25, **ONCE)
        outcome = classify_once(docs, ecommerce_schema, config, provider)
        assert outcome.n_reasks == 1
        assert outcome.resolved == {
            0: "Electronics",
            1: "Books",
            2: "Clothing & Accessories",
        }
        assert outcome.invalid_ids == []
        # the re-ask prompt listed only the unresolved document
        assert provider.bodies[1]["messages"][1]["content"] == "1. a novel"

    def test_unresolved_after_reask_marked_invalid(self, ecommerce_schema):
        docs = make_docs(["usb hub", "mystery item"])
        provider = ScriptedProvider(
            ['{"0": "Electronics", "1": "Grocery"}', '{"1": "StillWrong"}']
        )
        config = LlmRunConfig(model="m", **ONCE)
        outcome = classify_once(docs, ecommerce_schema, config, provider)
        assert outcome.resolved == {0: "Electronics"}
        assert outcome.invalid_ids == [1]
        assert outcome.diagnostics.missing_index == 1
        assert outcome.diagnostics.unknown_label == 2

    def test_blank_documents_invalid_without_a_request(self, ecommerce_schema):
        docs = make_docs(["usb hub", "   ", "a novel", ""])
        provider = ScriptedProvider(['{"0": "Electronics", "2": "Books"}'])
        config = LlmRunConfig(model="m", batch_size=2, **ONCE)
        outcome = classify_once(docs, ecommerce_schema, config, provider)
        assert provider.calls == 1
        assert provider.bodies[0]["messages"][1]["content"] == "0. usb hub\n2. a novel"
        assert outcome.doc_ids == (0, 1, 2, 3)
        assert outcome.invalid_ids == [1, 3]
        assert (outcome.n_requests, outcome.n_reasks) == (1, 0)

    def test_all_blank_documents_send_nothing(self, ecommerce_schema):
        provider = ScriptedProvider([])
        config = LlmRunConfig(model="m", **ONCE)
        docs = make_docs(["", " "])
        outcome = classify_once(docs, ecommerce_schema, config, provider)
        assert provider.calls == 0
        assert outcome.invalid_ids == [0, 1]
        assert (outcome.n_requests, outcome.n_reasks) == (0, 0)

    def test_provider_failure_aborts(self, ecommerce_schema):
        docs = make_docs(["usb hub"])
        provider = ScriptedProvider([ProviderError("HTTP 500", retryable=True)] * 5)
        config = LlmRunConfig(model="m", max_retries=1, **ONCE)
        with pytest.raises(ClassificationAborted):
            classify_once(docs, ecommerce_schema, config, provider)

    @pytest.mark.parametrize("concurrency", [2, 8])
    def test_permanent_failure_stops_further_requests(self, ecommerce_schema, concurrency):
        class RejectingProvider:
            def __init__(self):
                self.calls = 0
                self._lock = threading.Lock()

            def complete(self, body):
                with self._lock:
                    self.calls += 1
                raise AuthenticationError("bad key")

        docs = make_docs([f"usb item {i}" for i in range(40)])
        provider = RejectingProvider()
        config = LlmRunConfig(model="m", batch_size=2, concurrency=concurrency, **ONCE)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the workers as often as possible
        try:
            with pytest.raises(ClassificationAborted, match=r"^aborted after 0/20 batches: bad key$"):
                classify_once(docs, ecommerce_schema, config, provider)
        finally:
            sys.setswitchinterval(interval)
        assert 1 <= provider.calls <= 2 * concurrency

    @staticmethod
    def interrupting_provider(schema):
        """(provider, call counter): answers by keyword after 50 ms; its 3rd
        call raises Ctrl-C in the main thread."""
        rules = KeywordRuleProvider(schema, FIXTURE_RULES, FIXTURE_DEFAULT_LABEL)
        calls = [0]
        lock = threading.Lock()

        class InterruptingProvider:
            def complete(self, body):
                with lock:
                    calls[0] += 1
                    interrupt = calls[0] == 3
                if interrupt:
                    _thread.interrupt_main()
                time.sleep(0.05)
                return rules.complete(body)

        return InterruptingProvider(), calls

    def test_keyboard_interrupt_stops_further_requests(self, ecommerce_schema, sigint_raises):
        provider, calls = self.interrupting_provider(ecommerce_schema)
        docs = make_docs([f"usb item {i}" for i in range(40)])
        config = LlmRunConfig(model="m", batch_size=1, concurrency=2, **ONCE)
        with pytest.raises(KeyboardInterrupt):
            classify_once(docs, ecommerce_schema, config, provider)
        # only the batches in flight when the interrupt landed may send more
        assert 3 <= calls[0] <= 3 + 2 * config.concurrency

    def test_keyboard_interrupt_while_workers_start_sends_nothing(
        self, ecommerce_schema, monkeypatch
    ):
        # the interrupt lands in __enter__ once the first worker has started,
        # so `with` never calls __exit__ to stop it
        started = []

        class InterruptedExecutor(gateway_classify.ThreadPoolExecutor):
            def submit(self, fn, *args):
                if started:
                    raise KeyboardInterrupt
                started.append(fn)
                return super().submit(fn, *args)

        rules = KeywordRuleProvider(ecommerce_schema, FIXTURE_RULES, FIXTURE_DEFAULT_LABEL)
        calls = []

        class SlowProvider:
            def complete(self, body):
                calls.append(body)
                time.sleep(0.01)
                return rules.complete(body)

        monkeypatch.setattr(gateway_classify, "ThreadPoolExecutor", InterruptedExecutor)
        docs = make_docs([f"usb item {i}" for i in range(20)])
        config = LlmRunConfig(model="m", batch_size=1, concurrency=2, **ONCE)
        with pytest.raises(KeyboardInterrupt):
            with ClassificationPool(docs, ecommerce_schema, ECOMMERCE_TASK, config, SlowProvider()):
                pytest.fail("the pool was entered")
        time.sleep(0.1)
        assert started and calls == []

    def test_keyboard_interrupt_stops_later_repeats(
        self, tmp_path, ecommerce_schema, sigint_raises
    ):
        provider, calls = self.interrupting_provider(ecommerce_schema)
        docs = make_docs([f"usb item {i}" for i in range(40)])
        config = LlmRunConfig(model="m", batch_size=1, concurrency=2, repeat_count=3, **FAST)
        audit = AuditLog(tmp_path / "audit.jsonl")
        with pytest.raises(KeyboardInterrupt):
            with ClassificationPool(
                docs, ecommerce_schema, ECOMMERCE_TASK, config, provider, audit=audit
            ) as pool:
                for repeat in range(config.repeat_count):
                    classify_corpus(pool, repeat)
        audit.close()
        assert 3 <= calls[0] <= 3 + 2 * config.concurrency
        # every request sent belongs to repeat 0, the one interrupted
        records = [record for record, _ in replay_audit(audit.path, ecommerce_schema)]
        assert len(records) == calls[0]
        assert {record["repeat"] for record in records} == {0}


class TestAuditLog:
    def test_replay_reproduces_parses(self, tmp_path, ecommerce_schema):
        docs = make_docs([f"item {i} usb" for i in range(7)])
        provider = KeywordRuleProvider(
            ecommerce_schema, FIXTURE_RULES, FIXTURE_DEFAULT_LABEL, noise=True
        )
        audit = AuditLog(tmp_path / "audit.jsonl")
        config = LlmRunConfig(model="mock", batch_size=3, **ONCE)
        classify_once(docs, ecommerce_schema, config, provider, audit=audit)
        audit.close()
        records = list(replay_audit(tmp_path / "audit.jsonl", ecommerce_schema))
        assert len(records) == 3  # ceil(7 / 3) batches, no re-asks
        for record, reparsed in records:
            stored = record["parsed"]
            assert {int(k): v for k, v in stored["resolved"].items()} == reparsed.resolved
            assert stored["diagnostics"] == reparsed.diagnostics.to_json_dict()
            assert record["repeat"] == 0
            assert record["response"]["raw_text"].startswith("Sure!")

    def test_every_request_is_logged(self, tmp_path, ecommerce_schema):
        docs = make_docs(["usb hub", "mystery item"])
        provider = ScriptedProvider(['{"0": "Electronics"}', '{"1": "Books"}'])
        audit = AuditLog(tmp_path / "audit.jsonl")
        config = LlmRunConfig(model="m", **ONCE)
        classify_once(docs, ecommerce_schema, config, provider, audit=audit)
        audit.close()
        lines = (tmp_path / "audit.jsonl").read_text().splitlines()
        assert len(lines) == 2
        phases = {json.loads(line)["phase"] for line in lines}
        assert phases == {"initial", "re_ask"}

    def test_token_usage_round_trips(self, tmp_path, ecommerce_schema):
        usage = {"prompt_tokens": 31, "completion_tokens": 4, "total_tokens": 35}

        class MeteredProvider(ScriptedProvider):
            def complete(self, body):
                text, meta = super().complete(body)
                return text, {**meta, "usage": usage}

        audit = AuditLog(tmp_path / "audit.jsonl")
        classify_once(
            make_docs(["usb hub"]), ecommerce_schema,
            LlmRunConfig(model="m", **ONCE), MeteredProvider(['{"0": "Electronics"}']),
            audit=audit,
        )
        audit.close()
        [(record, reparsed)] = replay_audit(tmp_path / "audit.jsonl", ecommerce_schema)
        assert record["response"]["token_usage"] == usage
        assert reparsed.resolved == {0: "Electronics"}


class TestConcurrency:
    def test_results_independent_of_worker_count(self, ecommerce_schema):
        docs = make_docs([f"item {i} novel" for i in range(40)])
        outcomes = []
        for workers in (1, 4):
            provider = KeywordRuleProvider(
                ecommerce_schema, FIXTURE_RULES, FIXTURE_DEFAULT_LABEL
            )
            config = LlmRunConfig(model="m", batch_size=7, concurrency=workers, **ONCE)
            outcome = classify_once(docs, ecommerce_schema, config, provider)
            outcomes.append(outcome.resolved)
        assert outcomes[0] == outcomes[1]


class TestEntryPool:
    """One pool of `concurrency` workers serves every repeat of an entry."""

    def test_next_repeat_starts_before_the_last_batch_returns(self, ecommerce_schema):
        rules = KeywordRuleProvider(ecommerce_schema, FIXTURE_RULES, FIXTURE_DEFAULT_LABEL)
        lock = threading.Lock()
        sightings: dict[str, int] = {}
        in_flight, peak = [0], [0]
        next_repeat_started = threading.Event()
        overlapped = []

        class TailProvider:
            """Holds repeat 0's last batch until repeat 1's first batch arrives."""

            def complete(self, body):
                prompt = body["messages"][1]["content"]
                with lock:
                    sightings[prompt] = seen = sightings.get(prompt, 0) + 1
                    in_flight[0] += 1
                    peak[0] = max(peak[0], in_flight[0])
                try:
                    if prompt == "1. a novel" and seen == 1:
                        overlapped.append(next_repeat_started.wait(timeout=10))
                    elif prompt == "0. usb hub" and seen == 2:
                        next_repeat_started.set()
                    return rules.complete(body)
                finally:
                    with lock:
                        in_flight[0] -= 1

        docs = make_docs(["usb hub", "a novel"])
        config = LlmRunConfig(model="m", batch_size=1, concurrency=2, repeat_count=3, **FAST)
        provider = TailProvider()
        with ClassificationPool(docs, ecommerce_schema, ECOMMERCE_TASK, config, provider) as pool:
            outcomes = [classify_corpus(pool, repeat) for repeat in range(3)]
        assert overlapped == [True]
        assert peak[0] == config.concurrency
        assert [o.resolved for o in outcomes] == [{0: "Electronics", 1: "Books"}] * 3
        assert [o.n_requests for o in outcomes] == [2, 2, 2]

    def test_every_batch_of_every_repeat_is_counted_once(self, ecommerce_schema):
        provider = CountingProvider(
            KeywordRuleProvider(ecommerce_schema, FIXTURE_RULES, FIXTURE_DEFAULT_LABEL)
        )
        docs = make_docs([f"usb item {i}" for i in range(60)])
        # more workers than cores, switching as often as possible
        config = LlmRunConfig(model="m", batch_size=1, concurrency=8, repeat_count=5, **FAST)
        outcomes = []

        def consume():
            pool = ClassificationPool(docs, ecommerce_schema, ECOMMERCE_TASK, config, provider)
            with pool:
                outcomes.extend(classify_corpus(pool, r) for r in range(config.repeat_count))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # a lost update of a repeat's count of batches left would hang its wait
            consumer = threading.Thread(target=consume, daemon=True)
            consumer.start()
            consumer.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not consumer.is_alive()
        assert provider.calls == 5 * 60
        assert [o.n_requests for o in outcomes] == [60] * 5
        assert all(o.resolved == {i: "Electronics" for i in range(60)} for o in outcomes)

    @pytest.mark.parametrize("concurrency", [2, 4])
    def test_failure_in_a_later_repeat_aborts_the_entry(self, ecommerce_schema, concurrency):
        rules = KeywordRuleProvider(ecommerce_schema, FIXTURE_RULES, FIXTURE_DEFAULT_LABEL)
        lock = threading.Lock()
        sightings: dict[str, int] = {}
        calls, calls_at_failure, calls_at_stop = [0], [], []

        class StopRecordingEvent(threading.Event):
            """The pool's stop flag, noting the request count once it is set."""

            def set(self):
                with lock:  # no request is counted between the flag and the note
                    super().set()
                    if not calls_at_stop:
                        calls_at_stop.append(calls[0])

        class RepeatTwoRejectingProvider:
            """Rejects the key on the first batch of repeat 2, its 3rd sighting."""

            def complete(self, body):
                prompt = body["messages"][1]["content"]
                with lock:
                    calls[0] += 1
                    sightings[prompt] = seen = sightings.get(prompt, 0) + 1
                    reject = prompt.startswith("0. ") and seen == 3
                    if reject:
                        calls_at_failure.append(calls[0])
                if reject:
                    raise AuthenticationError("bad key")
                return rules.complete(body)

        docs = make_docs([f"usb item {i}" for i in range(10)])
        config = LlmRunConfig(
            model="m", batch_size=2, concurrency=concurrency, repeat_count=4, **FAST
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the workers as often as possible
        try:
            # the counts are batches of the whole entry: 4 repeats of 5
            aborted = r"^aborted after \d+/20 batches: bad key$"
            with pytest.raises(ClassificationAborted, match=aborted):
                pool = ClassificationPool(
                    docs, ecommerce_schema, ECOMMERCE_TASK, config, RepeatTwoRejectingProvider()
                )
                pool._stopping = StopRecordingEvent()  # first set by the failing worker
                with pool:
                    for repeat in range(config.repeat_count):
                        classify_corpus(pool, repeat)
        finally:
            sys.setswitchinterval(interval)
        assert len(calls_at_failure) == 1
        # the pool sees the rejection only once the rejecting thread runs
        # again, which on a loaded host can be after the other workers have
        # sent several batches; from then on, each other worker may finish
        # the one batch it has taken, without its re-ask
        assert calls[0] - calls_at_stop[0] <= concurrency - 1

    def test_failure_skips_the_re_ask_of_a_batch_in_flight(self, ecommerce_schema):
        stopped, batch_0_sent = threading.Event(), threading.Event()
        calls = []

        class StopSignallingEvent(threading.Event):
            def set(self):
                super().set()
                stopped.set()

        class Provider:
            """Rejects batch 1 once batch 0 is in flight; answers batch 0 with
            nothing once the pool stops."""

            def complete(self, body):
                prompt = body["messages"][1]["content"]
                calls.append(prompt)
                if prompt.startswith("1. "):
                    assert batch_0_sent.wait(timeout=10)
                    raise AuthenticationError("bad key")
                batch_0_sent.set()
                assert stopped.wait(timeout=10)
                return "{}", {}

        docs = make_docs(["usb hub", "a novel"])
        config = LlmRunConfig(model="m", batch_size=1, concurrency=2, **ONCE)
        with pytest.raises(ClassificationAborted, match="bad key"):
            pool = ClassificationPool(docs, ecommerce_schema, ECOMMERCE_TASK, config, Provider())
            pool._stopping = StopSignallingEvent()
            with pool:
                classify_corpus(pool, 0)
        assert sorted(calls) == ["0. usb hub", "1. a novel"]

    @pytest.mark.parametrize("leave_by", [ClassificationAborted, KeyboardInterrupt])
    def test_no_worker_outlives_the_pool(self, ecommerce_schema, sigint_raises, leave_by):
        # `_run_llm_variant` closes the provider as soon as the pool is left
        rules = KeywordRuleProvider(ecommerce_schema, FIXTURE_RULES, FIXTURE_DEFAULT_LABEL)
        lock = threading.Lock()
        calls = [0]

        class Provider:
            """Its 6th call, once the pool is waiting for repeat 0, fails or
            raises Ctrl-C in the main thread."""

            def complete(self, body):
                with lock:
                    calls[0] += 1
                    last = calls[0] == 6
                if last and leave_by is ClassificationAborted:
                    raise AuthenticationError("bad key")
                if last:
                    _thread.interrupt_main()
                time.sleep(0.01)
                return rules.complete(body)

        docs = make_docs([f"usb item {i}" for i in range(40)])
        config = LlmRunConfig(model="m", batch_size=1, concurrency=4, repeat_count=2, **FAST)
        before = set(threading.enumerate())
        with pytest.raises(leave_by):
            with ClassificationPool(docs, ecommerce_schema, ECOMMERCE_TASK, config, Provider()) as pool:
                for repeat in range(config.repeat_count):
                    classify_corpus(pool, repeat)
        calls_at_exit = calls[0]
        assert [t for t in threading.enumerate() if t not in before] == []
        time.sleep(0.1)
        assert calls[0] == calls_at_exit
