"""Labeled text corpora: loading, validation, and deterministic stratified splits.

A corpus is two parallel tuples, texts and labels, tied to a closed label
schema; a document's id is its row in file order. Loading normalizes labels
(trim + case-fold) against the schema; splitting returns row ids and uses
largest-remainder allocation so test-set class proportions track the corpus
within 1/test_size.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path


class CorpusError(ValueError):
    """Raised for unreadable, malformed, or schema-violating corpus input."""


@dataclass(frozen=True)
class LabelSchema:
    """The closed, ordered label set of a task.

    Label order is load-bearing: it fixes confusion-matrix row order, report
    row order, and argmax tie-breaking everywhere downstream.
    """

    task_name: str
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) < 2:
            raise CorpusError("schema needs at least 2 labels")
        seen = set()
        for label in self.labels:
            if not label.strip():
                raise CorpusError("schema labels must be non-empty")
            key = label.strip().casefold()
            if key in seen:
                raise CorpusError(f"duplicate label after case-folding: {label!r}")
            seen.add(key)

    def __len__(self) -> int:
        return len(self.labels)

    def codes(self, labels) -> list[int]:
        """The class code (schema position) of each label; KeyError for one outside the schema."""
        index = {label: i for i, label in enumerate(self.labels)}
        return [index[label] for label in labels]

    def canonicalize(self, raw: str) -> str | None:
        """Map a raw label string onto the schema by trim + case-fold.

        Returns the canonical schema label, or None when nothing matches.
        """
        key = raw.strip().casefold()
        for label in self.labels:
            if label.strip().casefold() == key:
                return label
        return None

    def to_json_dict(self) -> dict:
        return {"task_name": self.task_name, "labels": list(self.labels)}


@dataclass(frozen=True)
class LabeledCorpus:
    """Parallel `texts` and canonical `labels` under one schema; a
    document's id is its row."""

    schema: LabelSchema
    texts: tuple[str, ...]
    labels: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.texts)


def _iter_records(path: Path, fmt: str):
    """Yield (line_number, record_dict) pairs from a csv or jsonl file."""
    if fmt == "csv":
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise CorpusError(f"{path}: empty csv file")
            for record in reader:
                yield reader.line_num, record
    elif fmt == "jsonl":
        with path.open(encoding="utf-8") as fh:
            for line_num, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise CorpusError(f"{path}: line {line_num}: invalid JSON ({exc.msg})") from exc
                if not isinstance(record, dict):
                    raise CorpusError(f"{path}: line {line_num}: record is not a JSON object")
                yield line_num, record
    else:
        raise CorpusError(f"unsupported corpus format {fmt!r} (expected 'csv' or 'jsonl')")


def load_corpus(
    path: str | Path,
    format: str,
    text_field: str,
    label_field: str,
    schema: LabelSchema,
) -> LabeledCorpus:
    """Load a labeled corpus from a csv or jsonl file.

    Documents get sequential ids 0..N-1 in file order. Labels are validated
    against the schema after trim + case-fold normalization; the stored label
    is the canonical schema spelling. Errors name the offending line.
    """
    path = Path(path)
    if not path.is_file():
        raise CorpusError(f"corpus file not found: {path}")

    texts, labels = [], []
    for line_num, record in _iter_records(path, format):
        for fieldname in (text_field, label_field):
            if fieldname not in record or record[fieldname] is None:
                raise CorpusError(
                    f"{path}: line {line_num}: missing field {fieldname!r}"
                )
        text = str(record[text_field])
        if not text.strip():
            raise CorpusError(f"{path}: line {line_num}: empty text")
        raw_label = str(record[label_field])
        label = schema.canonicalize(raw_label)
        if label is None:
            raise CorpusError(
                f"{path}: line {line_num}: unknown label {raw_label!r} "
                f"(schema: {', '.join(schema.labels)})"
            )
        texts.append(text)
        labels.append(label)

    return LabeledCorpus(schema=schema, texts=tuple(texts), labels=tuple(labels))


def class_distribution(corpus: LabeledCorpus) -> dict[str, int]:
    """Count documents per schema label; unseen labels map to 0."""
    counts = {label: 0 for label in corpus.schema.labels}
    for label in corpus.labels:
        counts[label] += 1
    return counts


def _test_quotas(corpus: LabeledCorpus, test_size: int) -> dict[str, int]:
    """Largest-remainder class quotas for a test set of `test_size` items.

    Ties in fractional remainder are broken by schema order.
    """
    counts = class_distribution(corpus)
    total = len(corpus)
    shares = {c: test_size * n / total for c, n in counts.items()}
    quotas = {c: int(shares[c]) for c in counts}
    leftover = test_size - sum(quotas.values())
    by_remainder = sorted(
        corpus.schema.labels,
        key=lambda c: (-(shares[c] - quotas[c]), corpus.schema.labels.index(c)),
    )
    for c in by_remainder[:leftover]:
        quotas[c] += 1
    for c, quota in quotas.items():
        if quota > counts[c]:
            raise CorpusError(
                f"class {c!r} has {counts[c]} documents but the proportional "
                f"split demands {quota}"
            )
    return quotas


def stratified_split(
    corpus: LabeledCorpus, test_size: int, seed: int
) -> tuple[list[int], list[int]]:
    """Split into (train_ids, test_ids) with class-proportional test counts.

    A pure function of its arguments: the same (corpus, test_size, seed)
    always yields the same member sets. Both id lists are ascending.
    """
    if test_size < 0:
        raise CorpusError(f"test_size must be non-negative, got {test_size}")
    if test_size > len(corpus):
        raise CorpusError(
            f"test_size {test_size} exceeds corpus size {len(corpus)}"
        )

    quotas = _test_quotas(corpus, test_size)
    rng = random.Random(seed)
    test_ids: set[int] = set()
    for label in corpus.schema.labels:
        members = [i for i, gold in enumerate(corpus.labels) if gold == label]
        rng.shuffle(members)
        test_ids.update(members[: quotas[label]])
    return [i for i in range(len(corpus)) if i not in test_ids], sorted(test_ids)
