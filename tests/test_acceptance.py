"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criterion 8 needs user-supplied datasets (and live credentials for
the LLM half) and is skipped when they are absent.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import random
import string
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from conftest import (
    ECOMMERCE_TASK,
    FIXTURE_DEFAULT_LABEL,
    FIXTURE_RULES,
    fixture_experiment_config,
    mock_llm_predictor,
)
from zsbench.baselines.logreg import _loss_and_grads
from zsbench.baselines.mnb import train_mnb
from zsbench.dataset import LabelSchema, load_corpus, stratified_split
from zsbench.gateway.parsing import ParsedLabels, parse_classification
from zsbench.gateway.prompts import build_instruction
from zsbench.metrics import ConfusionMatrix, binary_auc, macro_f1, mcc
from zsbench.orchestrator import run_experiment, validate_config

DATA = Path(__file__).parent / "data"


def criterion(number: int, description: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except pytest.skip.Exception as exc:
                print(f"ACCEPTANCE criterion {number} ({description}): SKIP - {exc}")
                raise
            except BaseException:
                print(f"ACCEPTANCE criterion {number} ({description}): FAIL")
                raise
            print(f"ACCEPTANCE criterion {number} ({description}): PASS")

        return wrapper

    return decorate


def csr(rows) -> sparse.csr_matrix:
    return sparse.csr_matrix(np.array(rows, dtype=float))


@criterion(1, "metric oracle suite")
def test_criterion_1_metric_oracles():
    start = time.monotonic()
    rng = random.Random(20240601)
    checked = 0
    while checked < 1000:
        n = rng.randint(2, 50)
        pool = [0.0, 0.25, 0.5, 0.75, 1.0]
        scores = np.array(
            [rng.choice(pool) if rng.random() < 0.5 else rng.random() for _ in range(n)]
        )
        positive = np.array([rng.random() < 0.5 for _ in range(n)])
        if positive.all() or not positive.any():
            continue
        pos = scores[positive]
        neg = scores[~positive]
        brute = (
            sum(1.0 for p in pos for q in neg if p > q)
            + 0.5 * sum(1.0 for p in pos for q in neg if p == q)
        ) / (len(pos) * len(neg))
        assert abs(binary_auc(scores, positive) - brute) <= 1e-12
        checked += 1

    schema = LabelSchema("t", ["a", "b"])
    cm = ConfusionMatrix(schema, ((1, 1), (0, 2)))
    assert abs(macro_f1(cm) - 11 / 15) <= 1e-9
    assert abs(macro_f1(cm) - 0.7333) <= 5e-5
    assert abs(mcc(ConfusionMatrix(schema, ((1, 1), (1, 1))))) <= 1e-9
    assert abs(mcc(ConfusionMatrix(schema, ((3, 0), (0, 2)))) - 1.0) <= 1e-9
    # binary MCC cross-checked against the textbook binary formula
    tp, fn, fp, tn = 5, 2, 1, 7
    cm2 = ConfusionMatrix(schema, ((tp, fn), (fp, tn)))
    expected = (tp * tn - fp * fn) / (
        ((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)) ** 0.5
    )
    assert abs(mcc(cm2) - expected) <= 1e-9

    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.1f}s"


@criterion(2, "MNB brute-force equivalence")
def test_criterion_2_mnb_exhaustive():
    start = time.monotonic()
    schema = LabelSchema("t", ["a", "b"])
    grid = [(1, (2, 3, 4)), (2, (2, 3, 4)), (3, (2, 3)), (4, (2,))]
    queries_by_dim = {
        d: list(itertools.product((0, 1, 2), repeat=d))[:4] for d in (1, 2, 3, 4)
    }
    n_cases = 0
    for n_terms, doc_counts in grid:
        vectors = list(itertools.product((0, 1), repeat=n_terms))
        for n_docs in doc_counts:
            for rows in itertools.product(vectors, repeat=n_docs):
                for labels in itertools.product(("a", "b"), repeat=n_docs):
                    if len(set(labels)) < 2:
                        continue
                    model = train_mnb(csr(rows), list(labels), schema, alpha=1.0)
                    v = n_terms
                    queries = queries_by_dim[n_terms]
                    for query, got in zip(queries, model.predict_proba(csr(queries))):
                        posts = []
                        for label in ("a", "b"):
                            class_rows = [r for r, y in zip(rows, labels) if y == label]
                            prior = len(class_rows) / n_docs
                            class_total = sum(map(sum, class_rows))
                            value = prior
                            for t in range(v):
                                term_sum = sum(r[t] for r in class_rows)
                                value *= ((term_sum + 1.0) / (class_total + v)) ** query[t]
                            posts.append(value)
                        total = posts[0] + posts[1]
                        expected = (posts[0] / total, posts[1] / total)
                        assert abs(got[0] - expected[0]) <= 1e-12
                        assert abs(got[1] - expected[1]) <= 1e-12
                    n_cases += 1
    assert n_cases > 5000
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"criterion 2 took {elapsed:.1f}s ({n_cases} corpora)"


@criterion(3, "LR gradient check")
def test_criterion_3_lr_gradient_check():
    start = time.monotonic()
    rng = np.random.default_rng(777)
    n, v, k = 15, 10, 3
    x = rng.normal(size=(n, v))
    y = rng.integers(0, k, size=n)
    y_onehot = np.zeros((n, k))
    y_onehot[np.arange(n), y] = 1.0
    weights = rng.normal(scale=0.4, size=(k, v))
    bias = rng.normal(scale=0.4, size=k)
    l2 = 0.01
    _, grad_w, grad_b = _loss_and_grads(weights.T, bias, x, x.T, y_onehot, l2)
    grad_w = grad_w.T

    def loss(w, b):
        return _loss_and_grads(w.T, b, x, x.T, y_onehot, l2)[0]

    eps = 1e-5
    for i in range(k):
        for j in range(v):
            up, down = weights.copy(), weights.copy()
            up[i, j] += eps
            down[i, j] -= eps
            numeric = (loss(up, bias) - loss(down, bias)) / (2 * eps)
            rel = abs(grad_w[i, j] - numeric) / max(abs(numeric), 1e-8)
            assert rel < 1e-6, f"dW[{i},{j}] relative error {rel:.2e}"
        up, down = bias.copy(), bias.copy()
        up[i] += eps
        down[i] -= eps
        numeric = (loss(weights, up) - loss(weights, down)) / (2 * eps)
        rel = abs(grad_b[i] - numeric) / max(abs(numeric), 1e-8)
        assert rel < 1e-6, f"db[{i}] relative error {rel:.2e}"
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"criterion 3 took {elapsed:.1f}s"


@criterion(4, "golden e-commerce prompt")
def test_criterion_4_golden_prompt(ecommerce_schema):
    golden = (
        "You are an AI assistant and you are very good at doing e-commerce products "
        "classification. You are going to help a customer to classify the products in "
        "the e-commerce website. You are only allowed to choose one of the following "
        "4 categories: Household, Books, Clothing & Accessories, Electronics. Please "
        "provide only one category for each product in JSON format where the key is "
        "the index for each product and the value is one of the 4 categories. For "
        "example: {1: Household}. Please do not repeat or return the content back "
        "again, just provide the category in the defined format."
    )
    assert build_instruction(ecommerce_schema, ECOMMERCE_TASK) == golden


@criterion(5, "parser robustness corpus and fuzz")
def test_criterion_5_parser_robustness(ecommerce_schema):
    start = time.monotonic()
    cases = [
        json.loads(line)
        for line in (DATA / "malformed_responses.jsonl").read_text().splitlines()
        if line.strip()
    ]
    assert len(cases) >= 20
    for case in cases:
        parsed = parse_classification(case["raw"], case["batch"], ecommerce_schema)
        assert isinstance(parsed, ParsedLabels), case["name"]
        assert parsed.resolved == {
            int(k): v for k, v in case["expect_resolved"].items()
        }, case["name"]
        assert parsed.diagnostics.to_json_dict() == case["expect_diagnostics"], case["name"]

    rng = random.Random(99)
    seeds = [
        '{"1": "Household", "2": "Books"}',
        'Sure thing: {"1":"Electronics"} bye',
        '{"1": "Clothing & Accessories"',
        "[]",
        "",
        '{"1": 42, "7": null}',
    ]
    for i in range(10_000):
        raw = rng.choice(seeds)
        chars = list(raw)
        for _ in range(rng.randint(0, 8)):
            op = rng.randint(0, 2)
            pos = rng.randrange(len(chars) + 1)
            if op == 0 and chars:
                del chars[min(pos, len(chars) - 1)]
            elif op == 1:
                chars.insert(pos, rng.choice('{}":,\\\x00\x7fé[]'))
            elif chars:
                chars[min(pos, len(chars) - 1)] = rng.choice(string.printable)
        batch = list(range(rng.randint(1, 4)))
        parsed = parse_classification("".join(chars), batch, ecommerce_schema)
        assert len(parsed.resolved) + parsed.diagnostics.missing_index == len(batch)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"criterion 5 took {elapsed:.1f}s"


def _fixture_config(tmp_path, repeat_count=5):
    predictors = [
        {"name": "mnb"},
        {"name": "logreg", "epochs": 100},
        {"name": "knn", "k": 5},
        {"name": "dt", "max_depth": 16},
        {"name": "rf", "n_trees": 50, "max_depth": 16, "seed": 7},
        mock_llm_predictor(repeat_count=repeat_count),
    ]
    return validate_config(
        fixture_experiment_config(DATA / "fixture_corpus.csv", tmp_path / "runs", predictors)
    )


@criterion(6, "end-to-end determinism on the fixture corpus")
def test_criterion_6_end_to_end(tmp_path, ecommerce_schema):
    config = _fixture_config(tmp_path)
    start = time.monotonic()
    first = run_experiment(config, run_id="e2e-a")
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"experiment took {elapsed:.1f}s"

    for name in ("mnb", "logreg", "knn", "dt", "rf", "mock-llm"):
        assert first.predictors[name].status == "ok", first.predictors[name].error

    second = run_experiment(config, run_id="e2e-b")
    for rel in ["report.md", "report.json", "split.json"]:
        assert (first.run_dir / rel).read_text() == (second.run_dir / rel).read_text()
    for name in first.predictors:
        a = (first.run_dir / "reports" / f"{name}.json").read_text()
        b = (second.run_dir / "reports" / f"{name}.json").read_text()
        assert a == b

    # oracle: the mock's keyword rule applied directly to the test documents
    corpus = load_corpus(DATA / "fixture_corpus.csv", "csv", "text", "category", ecommerce_schema)
    _, test_ids = stratified_split(corpus, config.test_size, config.split_seed)
    correct = 0
    for i in test_ids:
        lowered = corpus.texts[i].lower()
        predicted = FIXTURE_DEFAULT_LABEL
        for label in ecommerce_schema.labels:
            if any(kw.lower() in lowered for kw in FIXTURE_RULES.get(label, [])):
                predicted = label
                break
        correct += predicted == corpus.labels[i]
    oracle_acc = correct / len(test_ids)

    mock_res = first.predictors["mock-llm"]
    assert mock_res.aggregates["acc"].std == 0.0
    assert mock_res.aggregates["acc"].mean == oracle_acc  # exact
    for run in mock_res.runs:
        assert run.acc == oracle_acc


@criterion(7, "ablation protocol, 5 repeats, std zero with a deterministic mock")
def test_criterion_7_ablation(tmp_path):
    config = validate_config(
        fixture_experiment_config(
            DATA / "fixture_corpus.csv",
            tmp_path / "runs",
            [mock_llm_predictor(text_variant="both", repeat_count=5)],
        )
    )
    result = run_experiment(config, run_id="ablation")
    assert set(result.predictors) == {"mock-llm-original", "mock-llm-clean"}
    formatted = {}
    for name, res in result.predictors.items():
        assert len(res.runs) == 5
        for metric in ("acc", "macro_f1", "mcc"):
            agg = res.aggregates[metric]
            assert len(agg.values) == 5
            assert agg.std == 0.0
        formatted[name] = res.aggregates["acc"].format()
        assert formatted[name].endswith("±0.0000")
    report = (result.run_dir / "report.md").read_text()
    for name in formatted:
        assert formatted[name] in report


SMS_ENV = "ZSBENCH_SMS_CSV"
ECOM_ENV = "ZSBENCH_ECOMMERCE_CSV"
ENDPOINT_ENV = "ZSBENCH_CHAT_ENDPOINT"
KEY_ENV = "OPENAI_API_KEY"


@criterion(8, "paper-number reproduction (gated on datasets/credentials)")
def test_criterion_8_paper_numbers(tmp_path):
    sms_path = os.environ.get(SMS_ENV)
    if not sms_path:
        pytest.skip(
            f"set {SMS_ENV} to a csv with text/label columns (ham|spam) to enable; "
            f"add {ECOM_ENV}, {ENDPOINT_ENV} and {KEY_ENV} for the live LLM half"
        )

    schema = LabelSchema("sms spam", ["ham", "spam"])
    predictors = [{"name": "rf", "seed": 7}]
    live = os.environ.get(ENDPOINT_ENV) and os.environ.get(KEY_ENV)
    if live:
        predictors.append(
            {
                "name": "gpt-4",
                "type": "llm",
                "model": "gpt-4-1106-preview",
                "provider": {"type": "http", "endpoint": os.environ[ENDPOINT_ENV],
                             "api_key_env": KEY_ENV},
                "repeat_count": 1,
                "task": {
                    "subject": "sms spam",
                    "item_singular": "message",
                    "item_plural": "messages",
                    "venue": "the sms inbox",
                },
            }
        )
    raw = json.dumps(
        {
            "dataset": {
                "path": sms_path,
                "format": "csv",
                "text_field": "text",
                "label_field": "label",
                "schema": {"task_name": "sms spam", "labels": ["ham", "spam"]},
            },
            "split": {"test_size": 150, "seed": 42},
            "predictors": predictors,
            "output_dir": str(tmp_path / "runs"),
        }
    )
    result = run_experiment(validate_config(raw), run_id="sms")

    rf = result.predictors["rf"]
    assert rf.status == "ok", rf.error
    # paper reports 0.9067 for RF on SMS; hyperparameters are unknown, so the
    # criterion only demands a 0.80 floor
    assert rf.report.acc >= 0.80, f"RF accuracy {rf.report.acc:.4f} below floor"

    if live:
        gpt = result.predictors["gpt-4"]
        assert gpt.status == "ok", gpt.error
        acc = gpt.aggregates["acc"].mean
        assert abs(acc - 0.9733) <= 0.05, f"GPT-4 SMS accuracy {acc:.4f} outside ±0.05"
    else:
        print(f"ACCEPTANCE criterion 8: LLM half skipped ({ENDPOINT_ENV}/{KEY_ENV} unset)")

    ecom_path = os.environ.get(ECOM_ENV)
    if live and ecom_path:
        raw = json.dumps(
            {
                "dataset": {
                    "path": ecom_path,
                    "format": "csv",
                    "text_field": "text",
                    "label_field": "label",
                    "schema": {
                        "task_name": "e-commerce",
                        "labels": ["Household", "Books", "Clothing & Accessories", "Electronics"],
                    },
                },
                "split": {"test_size": 150, "seed": 42},
                "predictors": [
                    {
                        "name": "gpt-4",
                        "type": "llm",
                        "model": "gpt-4-1106-preview",
                        "provider": {"type": "http", "endpoint": os.environ[ENDPOINT_ENV],
                                     "api_key_env": KEY_ENV},
                        "repeat_count": 1,
                        "task": ECOMMERCE_TASK.to_json_dict(),
                    }
                ],
                "output_dir": str(tmp_path / "runs"),
            }
        )
        ecom_result = run_experiment(validate_config(raw), run_id="ecommerce")
        gpt = ecom_result.predictors["gpt-4"]
        assert gpt.status == "ok", gpt.error
        acc = gpt.aggregates["acc"].mean
        assert abs(acc - 0.9000) <= 0.05, f"GPT-4 e-commerce accuracy {acc:.4f} outside ±0.05"
