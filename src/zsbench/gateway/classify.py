"""Corpus-level zero-shot classification over a chat provider.

Documents are batched, each batch gets one request plus at most one
follow-up asking only about entries the parser could not resolve, and
anything still unresolved is marked invalid (scored as incorrect
downstream, never guessed). A document whose text is blank, such as a
tweet that cleans to nothing, goes in no request and is marked invalid.
Every request/response pair is appended to a JSONL audit log that can be
replayed through the parser offline.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path

from ..dataset import LabelSchema
from .client import GatewayError, LlmRunConfig, build_request_body, complete_chat
from .parsing import ParseDiagnostics, ParsedLabels, parse_classification
from .prompts import TaskDescription, build_prompt


# longest classify_corpus waits before it sees a pending KeyboardInterrupt
_INTERRUPT_POLL_S = 0.05


class ClassificationAborted(GatewayError):
    """A batch failed permanently; partial results stay in the audit log."""

    def __init__(self, cause: Exception, completed_batches: int, total_batches: int):
        super().__init__(
            f"aborted after {completed_batches}/{total_batches} batches: {cause}"
        )
        self.cause = cause


class AuditLog:
    """Append-only JSONL sink; appends are serialized across threads.

    Constructing the log truncates any file left over from a previous run
    under the same path, so one AuditLog spans exactly one run.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text("", encoding="utf-8")
        self._lock = threading.Lock()

    def append(self, record: dict) -> None:
        line = json.dumps(record, sort_keys=True)
        with self._lock:
            with self.path.open("a", encoding="utf-8") as fh:
                fh.write(line + "\n")


@dataclass
class LlmClassification:
    """Final per-document outcome of one classification pass."""

    doc_ids: tuple[int, ...]
    resolved: dict[int, str]
    diagnostics: ParseDiagnostics
    n_requests: int
    n_reasks: int

    @property
    def invalid_ids(self) -> list[int]:
        return [i for i in self.doc_ids if i not in self.resolved]


def _audit_record(meta, batch_no, phase, doc_ids, body, response, parsed: ParsedLabels) -> dict:
    return {
        **meta,
        "batch": batch_no,
        "phase": phase,
        "doc_ids": list(doc_ids),
        "request": body,
        "response": {
            "raw_text": response.raw_text,
            "latency_s": response.latency_s,
            "model": response.model,
            "retries": response.retries,
            "token_usage": response.token_usage,
        },
        "parsed": {
            "resolved": {str(k): v for k, v in sorted(parsed.resolved.items())},
            "diagnostics": parsed.diagnostics.to_json_dict(),
        },
    }


def classify_corpus(
    items: list[tuple[int, str]],
    schema: LabelSchema,
    task: TaskDescription,
    config: LlmRunConfig,
    provider,
    audit: AuditLog | None = None,
    audit_meta: dict | None = None,
) -> LlmClassification:
    """Classify every (doc id, text) pair, preserving input order in the result.

    Batches run with up to `config.concurrency` requests in flight; results
    are reassembled in batch order. The first permanent failure aborts the
    run: batches not yet started are cancelled and send no request. So does
    a KeyboardInterrupt, which is re-raised once the requests in flight end.
    """
    if not items:
        raise GatewayError("no documents to classify")
    meta = dict(audit_meta or {})

    sendable = [(i, text) for i, text in items if text.strip()]
    batches = [
        sendable[i : i + config.batch_size] for i in range(0, len(sendable), config.batch_size)
    ]

    def run_batch(batch_no: int) -> tuple[ParsedLabels, int]:
        """The batch's merged labels and its request count: one request, then
        one re-ask listing only the entries the first left unresolved."""
        pending = batches[batch_no]
        merged = ParsedLabels()
        n_requests = 0
        for phase in ("initial", "re_ask"):
            bundle = build_prompt(schema, task, pending)
            response = complete_chat(bundle, config, provider)
            n_requests += 1
            parsed = parse_classification(response.raw_text, bundle.batch_indices, schema)
            if audit is not None:
                audit.append(
                    _audit_record(
                        meta, batch_no, phase, bundle.batch_indices,
                        build_request_body(bundle, config), response, parsed,
                    )
                )
            merged.resolved.update(parsed.resolved)
            merged.diagnostics.merge(parsed.diagnostics)
            pending = [(i, t) for i, t in pending if i not in merged.resolved]
            if not pending:
                break
        return merged, n_requests

    outcomes: list[tuple[ParsedLabels, int] | None] = [None] * len(batches)
    doomed = threading.Event()

    def run_guarded(batch_no: int) -> None:
        # once a batch has failed the run is doomed: start no further requests
        if doomed.is_set():
            return
        try:
            outcomes[batch_no] = run_batch(batch_no)
        except Exception:
            doomed.set()
            raise

    with ThreadPoolExecutor(max_workers=config.concurrency) as pool:
        futures = [pool.submit(run_guarded, b) for b in range(len(batches))]
        try:
            # waits in slices: an interrupt that does not wake a blocked wait
            # (raised from another thread, or a signal that landed on a
            # worker) would otherwise surface only once every batch had run
            pending = futures
            while pending and not doomed.is_set():
                _, pending = wait(pending, timeout=_INTERRUPT_POLL_S, return_when=FIRST_EXCEPTION)
        except BaseException:  # Ctrl-C: start no further requests, then re-raise
            doomed.set()
            raise
        finally:
            for future in futures:
                future.cancel()
    errors = [f.exception() for f in futures if not f.cancelled()]
    failure = next((exc for exc in errors if exc is not None), None)
    if failure is not None:
        completed = sum(outcome is not None for outcome in outcomes)
        raise ClassificationAborted(failure, completed, len(batches)) from failure

    resolved: dict[int, str] = {}
    diagnostics = ParseDiagnostics()
    for parsed, _ in outcomes:
        resolved.update(parsed.resolved)
        diagnostics.merge(parsed.diagnostics)
    # after re-asks, "missing" means finally unresolved, not per-parse gaps
    diagnostics.missing_index = len(items) - len(resolved)
    n_requests = sum(n for _, n in outcomes)

    return LlmClassification(
        doc_ids=tuple(i for i, _ in items),
        resolved=resolved,
        diagnostics=diagnostics,
        n_requests=n_requests,
        # each batch sends one request and at most one re-ask
        n_reasks=n_requests - len(batches),
    )


def replay_audit(path: str | Path, schema: LabelSchema):
    """Re-run the parser over a logged run.

    Yields (record, reparsed ParsedLabels); the reparsed labels must match
    the record's stored "parsed" section for a faithful log.
    """
    with Path(path).open(encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            parsed = parse_classification(
                record["response"]["raw_text"], record["doc_ids"], schema
            )
            yield record, parsed
