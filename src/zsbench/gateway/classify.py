"""Corpus-level zero-shot classification over a chat provider.

Documents are batched, each batch gets one request plus at most one
follow-up asking only about entries the parser could not resolve, and
anything still unresolved is marked invalid (scored as incorrect
downstream, never guessed). A document whose text is blank, such as a
tweet that cleans to nothing, goes in no request and is marked invalid.

An LLM entry classifies its corpus `repeat_count` times in one
`ClassificationPool`: each (repeat, batch) is one future of an executor
with `concurrency` workers, queued repeat after repeat, so the first
batches of a repeat start on the workers that the last batches of the one
before leave idle. `classify_corpus` waits for one repeat's futures and
merges their labels in batch order. The first permanent failure in any
repeat, or a Ctrl-C, cancels every batch not yet started, of every repeat;
the counts in `ClassificationAborted` are batches of the whole entry, all
repeats together.

Every request/response pair is appended to a JSONL audit log that can be
replayed through the parser offline; each record carries its repeat and
batch, and records of different repeats interleave.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path

from ..dataset import LabelSchema
from .client import GatewayError, LlmRunConfig, build_request_body, complete_chat
from .parsing import ParseDiagnostics, ParsedLabels, parse_classification
from .prompts import TaskDescription, build_prompt


# longest classify_corpus waits before it sees a pending KeyboardInterrupt
_INTERRUPT_POLL_S = 0.05


class ClassificationAborted(GatewayError):
    """A batch failed permanently; partial results stay in the audit log.

    `completed_batches` of `total_batches` count the batches of every
    repeat of the entry."""

    def __init__(self, cause: Exception, completed_batches: int, total_batches: int):
        super().__init__(
            f"aborted after {completed_batches}/{total_batches} batches: {cause}"
        )


class AuditLog:
    """Append-only JSONL sink over one open file; appends are serialized
    across threads and each record is written in one call.

    Constructing the log truncates any file left over from a previous run
    under the same path, so one AuditLog spans exactly one run; `close` it
    when the run ends.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "ab", buffering=0)  # O_APPEND
        self._file.truncate(0)
        self._lock = threading.Lock()

    def append(self, record: dict) -> None:
        line = memoryview((json.dumps(record, sort_keys=True) + "\n").encode("utf-8"))
        with self._lock:
            while line:  # a regular file takes the whole line in the first write
                line = line[self._file.write(line) :]

    def close(self) -> None:
        self._file.close()


@dataclass
class LlmClassification:
    """Final per-document outcome of one classification pass."""

    doc_ids: tuple[int, ...]
    resolved: dict[int, str] = field(default_factory=dict)
    diagnostics: ParseDiagnostics = field(default_factory=ParseDiagnostics)
    n_requests: int = 0
    n_reasks: int = 0

    @property
    def invalid_ids(self) -> list[int]:
        return [i for i in self.doc_ids if i not in self.resolved]


def _audit_record(
    meta, repeat, batch_no, phase, doc_ids, body, response, parsed: ParsedLabels
) -> dict:
    return {
        **meta,
        "repeat": repeat,
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


class ClassificationPool:
    """The requests of one LLM entry: `config.repeat_count` passes over the
    same (doc id, text) pairs, on one pool of `config.concurrency` workers.

    Every (repeat, batch) is queued on entry, repeat after repeat. Leaving
    the pool cancels the batches not yet started and waits for those in
    flight, so the provider can be closed after.
    """

    def __init__(
        self,
        items: list[tuple[int, str]],
        schema: LabelSchema,
        task: TaskDescription,
        config: LlmRunConfig,
        provider,
        audit: AuditLog | None = None,
        audit_meta: dict | None = None,
    ):
        if not items:
            raise GatewayError("no documents to classify")
        self.items = items
        self.schema, self.task, self.config, self.provider = schema, task, config, provider
        self.audit, self.meta = audit, dict(audit_meta or {})
        sendable = [(i, text) for i, text in items if text.strip()]
        self.batches = [
            sendable[i : i + config.batch_size] for i in range(0, len(sendable), config.batch_size)
        ]
        # set once the entry ends, fails or is interrupted: start no further batch or re-ask
        self._stopping = threading.Event()
        # set once __enter__ has queued every job; no worker takes one before
        self._queued = threading.Event()

    def __enter__(self) -> "ClassificationPool":
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.concurrency, initializer=self._queued.wait
        )
        # a Ctrl-C while queuing calls no __exit__, so the pool stops here; a
        # worker takes no job before the queue is whole, then finds it stopping
        try:
            self._futures = [
                [self._executor.submit(self._run_batch, r, b) for b in range(len(self.batches))]
                for r in range(self.config.repeat_count)
            ]
        except BaseException:
            self._stopping.set()
            self._executor.shutdown(wait=False, cancel_futures=True)
            raise
        finally:
            self._queued.set()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stopping.set()
        self._executor.shutdown(wait=True, cancel_futures=True)

    def _run_batch(self, repeat: int, batch_no: int) -> tuple[ParsedLabels, int] | None:
        """The batch's merged labels and its request count: one request, then
        one re-ask listing only the entries the first left unresolved. None
        when the pool was already stopping."""
        if self._stopping.is_set():
            return None
        pending = self.batches[batch_no]
        merged = ParsedLabels()
        n_requests = 0
        try:
            for phase in ("initial", "re_ask"):
                bundle = build_prompt(self.schema, self.task, pending)
                response = complete_chat(bundle, self.config, self.provider)
                n_requests += 1
                parsed = parse_classification(response.raw_text, bundle.batch_indices, self.schema)
                if self.audit is not None:
                    self.audit.append(
                        _audit_record(
                            self.meta, repeat, batch_no, phase, bundle.batch_indices,
                            build_request_body(bundle, self.config), response, parsed,
                        )
                    )
                merged.resolved.update(parsed.resolved)
                merged.diagnostics.merge(parsed.diagnostics)
                pending = [(i, t) for i, t in pending if i not in merged.resolved]
                if not pending or self._stopping.is_set():
                    break
        except Exception:  # the entry is doomed: start no further requests
            self._stopping.set()
            raise
        return merged, n_requests

    def finished(self, repeat: int) -> LlmClassification:
        """The outcome of `repeat` once all its batches are done; the pool
        keeps no copy.

        Raises ClassificationAborted, once the batches in flight have ended,
        as soon as a batch of any repeat has failed. A KeyboardInterrupt
        stops the pool from starting further batches and is re-raised.
        """
        futures = self._futures[repeat]
        try:
            # waits in slices: an interrupt that does not wake a blocked
            # wait (raised from another thread, or a signal that landed on
            # a worker) would otherwise surface only once the repeat ended
            while not self._stopping.is_set() and wait(futures, _INTERRUPT_POLL_S).not_done:
                pass
        except BaseException:  # Ctrl-C: start no further requests, then re-raise
            self._stopping.set()
            raise
        if self._stopping.is_set():  # a batch has failed: wait for those in flight
            self._executor.shutdown(wait=True, cancel_futures=True)
            # a finished repeat's futures are dropped: all its batches were done
            done = len(self.batches) * self._futures.count(None)
            started = [f for fs in self._futures if fs for f in fs if not f.cancelled()]
            done += sum(f.exception() is None and f.result() is not None for f in started)
            failure = next(f.exception() for f in started if f.exception() is not None)
            total = len(self.batches) * len(self._futures)
            raise ClassificationAborted(failure, done, total) from failure
        outcome = LlmClassification(tuple(i for i, _ in self.items))
        for future in futures:
            parsed, n_requests = future.result()
            outcome.resolved.update(parsed.resolved)
            outcome.diagnostics.merge(parsed.diagnostics)
            outcome.n_requests += n_requests
        self._futures[repeat] = None
        # after re-asks, "missing" means finally unresolved, not per-parse gaps
        outcome.diagnostics.missing_index = len(self.items) - len(outcome.resolved)
        # each batch sends one request and at most one re-ask
        outcome.n_reasks = outcome.n_requests - len(self.batches)
        return outcome


def classify_corpus(pool: ClassificationPool, repeat: int) -> LlmClassification:
    """One repeat of the pool's corpus once its batches are done; see
    `ClassificationPool.finished` for failures and interrupts."""
    return pool.finished(repeat)


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
