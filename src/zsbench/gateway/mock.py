"""Offline keyword-rule provider for reproducible end-to-end runs."""

from __future__ import annotations

import json
import re

from ..dataset import LabelSchema

_PAYLOAD_LINE_RE = re.compile(r"^(\d+)\.\s(.*)$")


def apply_keyword_rule(
    text: str,
    rules: dict[str, list[str]],
    default_label: str,
    label_order: tuple[str, ...],
) -> str:
    """First label (in `label_order`) with a case-insensitive keyword hit;
    `default_label` when nothing matches."""
    lowered = text.lower()
    for label in label_order:
        for keyword in rules.get(label, ()):
            if keyword.lower() in lowered:
                return label
    return default_label


class KeywordRuleProvider:
    """Deterministic stand-in for a chat endpoint.

    Reads the indexed documents out of the request's user message, labels
    each with a keyword rule, and answers in the requested JSON format.
    Optional `noise` wraps the JSON in prose, exercising the parser.
    """

    def __init__(
        self,
        schema: LabelSchema,
        rules: dict[str, list[str]] | None = None,
        default_label: str | None = None,
        noise: bool = False,
    ):
        rules = {} if rules is None else rules
        if not isinstance(rules, dict):
            raise TypeError(f"rules must map labels to keyword lists, got {rules!r}")
        default_label = schema.labels[0] if default_label is None else default_label
        unknown = [lab for lab in rules if lab not in schema.labels]
        if unknown:
            raise ValueError(f"rule labels not in schema: {unknown}")
        if default_label not in schema.labels:
            raise ValueError(f"default label {default_label!r} not in schema")
        self.schema = schema
        self.rules = {k: list(v) for k, v in rules.items()}
        self.default_label = default_label
        self.noise = noise
        self.calls = 0

    def classify_text(self, text: str) -> str:
        return apply_keyword_rule(text, self.rules, self.default_label, self.schema.labels)

    def complete(self, body: dict) -> tuple[str, dict]:
        self.calls += 1
        user = next(
            (m["content"] for m in body.get("messages", ()) if m.get("role") == "user"),
            "",
        )
        result = {}
        for line in user.splitlines():
            match = _PAYLOAD_LINE_RE.match(line)
            if match:
                result[match.group(1)] = self.classify_text(match.group(2))
        reply = json.dumps(result)
        if self.noise:
            reply = f"Sure! Here are the categories: {reply} Hope that helps."
        return reply, {"model": body.get("model", "mock"), "usage": {}}
