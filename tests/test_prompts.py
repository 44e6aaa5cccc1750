from __future__ import annotations

import hashlib

import pytest

from zsbench.dataset import LabelSchema
from zsbench.gateway.prompts import (
    PromptError,
    TaskDescription,
    build_instruction,
    build_prompt,
)
from conftest import ECOMMERCE_TASK

ECOMMERCE_INSTRUCTION = (
    "You are an AI assistant and you are very good at doing e-commerce products "
    "classification. You are going to help a customer to classify the products in "
    "the e-commerce website. You are only allowed to choose one of the following "
    "4 categories: Household, Books, Clothing & Accessories, Electronics. Please "
    "provide only one category for each product in JSON format where the key is "
    "the index for each product and the value is one of the 4 categories. For "
    "example: {1: Household}. Please do not repeat or return the content back "
    "again, just provide the category in the defined format."
)

# sha256 of the text above, pinned so template drift is caught even if the
# constant here were edited in tandem by mistake
ECOMMERCE_SHA256 = "e0e7ba50e4d0ecebd35e0fb6c0714a142fe50ce7f2520dad0c69581d5210d7a6"


@pytest.fixture
def schema(ecommerce_schema):
    return ecommerce_schema


class TestInstruction:
    def test_ecommerce_instruction_is_golden(self, schema):
        instruction = build_instruction(schema, ECOMMERCE_TASK)
        assert instruction == ECOMMERCE_INSTRUCTION
        assert hashlib.sha256(instruction.encode("utf-8")).hexdigest() == ECOMMERCE_SHA256

    def test_labels_enumerated_once(self, schema):
        instruction = build_instruction(schema, ECOMMERCE_TASK)
        list_part = instruction.split("categories: ")[1].split(". Please provide")[0]
        for label in schema.labels:
            assert list_part.count(label) == 1

    def test_sentiment_template_substitution(self):
        sentiment = LabelSchema("sentiment", ["positive", "neutral", "negative"])
        instruction = build_instruction(sentiment, TaskDescription.generic("sentiment"))
        assert "one of the following 3 categories: positive, neutral, negative" in instruction
        assert "For example: {1: positive}." in instruction
        assert "do not repeat or return the content back again" in instruction


class TestBuildPrompt:
    def test_single_item_payload(self, schema):
        bundle = build_prompt(schema, ECOMMERCE_TASK, [(7, "hello")])
        assert bundle.user_payload == "7. hello"
        assert bundle.batch_indices == (7,)

    def test_multi_item_payload_lines(self, schema):
        bundle = build_prompt(schema, ECOMMERCE_TASK, [(0, "first"), (1, "second")])
        assert bundle.user_payload == "0. first\n1. second"

    def test_newlines_flattened(self, schema):
        bundle = build_prompt(schema, ECOMMERCE_TASK, [(3, "a\nb\r\nc")])
        assert bundle.user_payload == "3. a b c"

    def test_deterministic_bytes(self, schema):
        batch = [(0, "usb charger"), (1, "a novel")]
        a = build_prompt(schema, ECOMMERCE_TASK, batch)
        b = build_prompt(schema, ECOMMERCE_TASK, batch)
        assert a == b

    def test_empty_batch_rejected(self, schema):
        with pytest.raises(PromptError, match="empty batch"):
            build_prompt(schema, ECOMMERCE_TASK, [])

    def test_empty_text_rejected(self, schema):
        with pytest.raises(PromptError, match="empty text"):
            build_prompt(schema, ECOMMERCE_TASK, [(0, "   ")])
