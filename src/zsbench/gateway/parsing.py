"""Robust extraction of label assignments from untrusted model output.

Models wrap their JSON in prose, invent indices, return labels outside the
schema, or truncate mid-object. Extraction finds the first balanced
top-level {...} region (string-escape aware); resolution matches entries
against the batch and schema, recording every repair in diagnostics and
never guessing a label.

Extraction costs O(len(raw)) whatever the input: a scan begun at any `{`
is, at each character, outside a string, inside one, or just after a
backslash inside one, and scans in the same state behave alike from then
on. One pass therefore tracks three stacks of open-brace levels, each level
holding the lowest start still open at that depth.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..dataset import LabelSchema
from .client import GatewayError


class PayloadError(GatewayError):
    """A response holds no JSON object that parses."""


@dataclass
class ParseDiagnostics:
    """Counts of everything the parser had to tolerate or drop."""

    extraneous_text_stripped: int = 0
    missing_index: int = 0
    extra_index: int = 0
    unknown_label: int = 0
    repaired_by_case_fold: int = 0
    unparseable: int = 0

    def merge(self, other: "ParseDiagnostics") -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def to_json_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


@dataclass
class ParsedLabels:
    """Outcome of parsing one response against one batch.

    resolved maps batch indices to canonical schema labels; every batch
    index is either resolved or counted missing (conservation).
    """

    resolved: dict[int, str] = field(default_factory=dict)
    diagnostics: ParseDiagnostics = field(default_factory=ParseDiagnostics)


def _merge(a: list[int], b: list[int]) -> list[int]:
    """Levels of two groups of scans now in one state, aligned from the top;
    the lower start survives at each level."""
    if len(a) < len(b):
        a, b = b, a
    if b:
        k = len(a) - len(b)
        a[k:] = map(min, a[k:], b)
    return a


def extract_json_payload(raw: str) -> tuple[str, bool]:
    """Return (first balanced top-level {...} region, prose_stripped).

    The region is the one whose opening brace comes first among all that
    close, with braces inside JSON strings not counting. Every `{` opens a
    level for the scans outside a string and starts a scan of its own; a
    `}` outside a string closes the innermost level, and that level's start
    has found its region.
    """
    outside: list[int] = []  # open levels per scanner state, innermost last
    inside: list[int] = []
    escaped: list[int] = []
    best: tuple[int, int] | None = None
    for pos, ch in enumerate(raw):
        if ch == '"':
            outside, inside, escaped = inside, _merge(outside, escaped), []
            continue
        if ch == "\\":
            inside, escaped = escaped, inside
            continue
        if escaped:
            inside, escaped = _merge(inside, escaped), []
        if ch == "{":
            outside.append(pos)
        elif ch == "}" and outside:
            start = outside.pop()
            if best is None or start < best[0]:
                best = (start, pos)
            if not (outside or inside):  # `escaped` is always empty here
                break  # no earlier start is still open
    if best is None:
        raise PayloadError("no JSON object found in response")
    start, end = best
    stripped = bool(raw[:start].strip()) or bool(raw[end + 1 :].strip())
    return raw[start : end + 1], stripped


def _parse_index(key: str) -> int | None:
    cleaned = key.strip().strip("\"'").strip()
    try:
        return int(cleaned)
    except ValueError:
        return None


def resolve_labels(
    payload: str, batch_indices: list[int] | tuple[int, ...], schema: LabelSchema
) -> ParsedLabels:
    """Match a JSON object of index->label pairs against batch and schema.

    Quoted integer keys are tolerated; labels match by trim + case-fold
    (counted as a repair when not an exact match); extra indices are
    dropped; unknown labels leave their index unresolved. An object of
    which nothing resolves gives an empty `resolved` and its diagnostics.
    """
    try:
        data = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise PayloadError(f"payload is not valid JSON: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise PayloadError(f"payload is not a JSON object (got {type(data).__name__})")

    wanted = set(batch_indices)
    result = ParsedLabels()
    diag = result.diagnostics
    for key, value in data.items():
        index = _parse_index(str(key))
        if index is None or index not in wanted:
            diag.extra_index += 1
            continue
        if not isinstance(value, str):
            diag.unknown_label += 1
            continue
        label = schema.canonicalize(value)
        if label is None:
            diag.unknown_label += 1
            continue
        if value != label:
            diag.repaired_by_case_fold += 1
        result.resolved[index] = label

    diag.missing_index = len(wanted) - len(result.resolved)
    return result


def parse_classification(
    raw: str, batch_indices: list[int] | tuple[int, ...], schema: LabelSchema
) -> ParsedLabels:
    """Total parse: never raises, whatever the input string.

    Failures come back as an all-missing ParsedLabels with `unparseable`
    set, so callers can retry or apply their fallback policy.
    """
    failed = ParsedLabels()
    failed.diagnostics.missing_index = len(batch_indices)
    failed.diagnostics.unparseable = 1
    try:
        payload, stripped = extract_json_payload(raw)
        parsed = resolve_labels(payload, batch_indices, schema)
    except PayloadError:
        return failed
    if stripped:
        parsed.diagnostics.extraneous_text_stripped = 1
    return parsed
