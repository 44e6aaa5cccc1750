"""Offline keyword-rule provider for reproducible end-to-end runs."""

from __future__ import annotations

import json
import re

from ..dataset import LabelSchema

_PAYLOAD_LINE_RE = re.compile(r"^(\d+)\.\s(.*)$")


class KeywordRuleProvider:
    """Deterministic stand-in for a chat endpoint.

    Reads the indexed documents out of the request's user message, labels
    each with the first schema label that has a case-insensitive keyword hit
    (`default_label` when none has), and answers in the requested JSON format.
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

    def complete(self, body: dict) -> tuple[str, dict]:
        user = next(
            (m["content"] for m in body.get("messages", ()) if m.get("role") == "user"),
            "",
        )
        result = {}
        for line in user.splitlines():
            match = _PAYLOAD_LINE_RE.match(line)
            if match:
                lowered = match.group(2).lower()
                result[match.group(1)] = next(
                    (
                        label
                        for label in self.schema.labels
                        if any(k.lower() in lowered for k in self.rules.get(label, ()))
                    ),
                    self.default_label,
                )
        reply = json.dumps(result)
        if self.noise:
            reply = f"Sure! Here are the categories: {reply} Hope that helps."
        return reply, {"model": body.get("model", "mock"), "usage": {}}
