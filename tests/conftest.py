from __future__ import annotations

import json
import os
import signal
from pathlib import Path

import pytest
from hypothesis import settings

from zsbench.dataset import LabelSchema
from zsbench.gateway.client import ProviderError
from zsbench.gateway.prompts import TaskDescription

DATA_DIR = Path(__file__).parent / "data"

# CI runners set CI: a falsified property then prints a @reproduce_failure
# blob that replays the same example locally
settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

ECOMMERCE_LABELS = ["Household", "Books", "Clothing & Accessories", "Electronics"]

FIXTURE_RULES = {
    "Household": ["kitchen", "furniture", "curtain"],
    "Books": ["novel", "paperback", "author"],
    "Clothing & Accessories": ["cotton", "sleeve", "denim"],
    "Electronics": ["battery", "wireless", "usb"],
}
FIXTURE_DEFAULT_LABEL = "Household"

ECOMMERCE_TASK = TaskDescription(
    subject="e-commerce products",
    item_singular="product",
    item_plural="products",
    venue="the e-commerce website",
)


class ScriptedProvider:
    """Replays a fixed sequence of replies; entries may be exceptions."""

    def __init__(self, script: list):
        self.script = list(script)
        self.calls = 0
        self.bodies: list[dict] = []

    def complete(self, body: dict) -> tuple[str, dict]:
        self.bodies.append(body)
        if self.calls >= len(self.script):
            raise ProviderError("script exhausted", retryable=False)
        entry = self.script[self.calls]
        self.calls += 1
        if isinstance(entry, Exception):
            raise entry
        return entry, {"model": "scripted", "usage": {}}


@pytest.fixture
def sigint_raises():
    """SIGINT raises KeyboardInterrupt for the test's duration, also in a
    process that inherited it ignored, as a job started with `&` does."""
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    yield
    signal.signal(signal.SIGINT, previous)


@pytest.fixture
def ecommerce_schema() -> LabelSchema:
    return LabelSchema("e-commerce", ECOMMERCE_LABELS)


@pytest.fixture
def spam_schema() -> LabelSchema:
    return LabelSchema("sms spam", ["ham", "spam"])


@pytest.fixture
def fixture_corpus_path() -> Path:
    return DATA_DIR / "fixture_corpus.csv"


def fixture_experiment_config(
    corpus_path: Path,
    output_dir: Path,
    predictors: list[dict],
    **overrides,
) -> str:
    """Config JSON for experiments over the bundled fixture corpus."""
    config = {
        "dataset": {
            "path": str(corpus_path),
            "format": "csv",
            "text_field": "text",
            "label_field": "category",
            "schema": {"task_name": "e-commerce", "labels": ECOMMERCE_LABELS},
        },
        "split": {"test_size": 150, "seed": 42},
        "predictors": predictors,
        "output_dir": str(output_dir),
    }
    config.update(overrides)
    return json.dumps(config)


def mock_llm_predictor(name: str = "mock-llm", **overrides) -> dict:
    entry = {
        "name": name,
        "type": "llm",
        "model": "mock-model",
        "provider": {
            "type": "mock",
            "rules": FIXTURE_RULES,
            "default_label": FIXTURE_DEFAULT_LABEL,
        },
    }
    entry.update(overrides)
    return entry
