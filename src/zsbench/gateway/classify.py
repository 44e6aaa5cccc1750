"""Corpus-level zero-shot classification over a chat provider.

Documents are batched, each batch gets one request plus at most one
follow-up asking only about entries the parser could not resolve, and
anything still unresolved is marked invalid (scored as incorrect
downstream, never guessed). A document whose text is blank, such as a
tweet that cleans to nothing, goes in no request and is marked invalid.

An LLM entry classifies its corpus `repeat_count` times in one
`ClassificationPool`: its `concurrency` workers take the batches of every
repeat from one queue, repeat after repeat, so the first batches of a
repeat start on the workers that the last batches of the one before leave
idle. `classify_corpus` waits for one repeat. The first permanent failure
in any repeat, or a Ctrl-C, cancels every batch not yet started, of every
repeat; the counts in `ClassificationAborted` are batches of the whole
entry, all repeats together.

Every request/response pair is appended to a JSONL audit log that can be
replayed through the parser offline; each record carries its repeat and
batch, and records of different repeats interleave.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
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
        self.cause = cause


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
    resolved: dict[int, str]
    diagnostics: ParseDiagnostics
    n_requests: int
    n_reasks: int

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

    The workers take the batches of every repeat in turn, repeat after
    repeat. Leaving the pool starts no further batch and waits for those in
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
        repeats = range(config.repeat_count)
        self._jobs = iter(())  # handed out by __enter__ once every job loop has started
        self._outcomes = [[None] * len(self.batches) for _ in repeats]
        self._left = [len(self.batches) for _ in repeats]  # batches each repeat waits for
        self._failure: Exception | None = None
        # guards the jobs and the three lists above; notified when a batch ends
        self._lock = threading.RLock()
        self._changed = threading.Condition(self._lock)
        # set once the entry ends, fails or is interrupted: start no further batch or re-ask
        self._stopping = threading.Event()

    def __enter__(self) -> "ClassificationPool":
        # a job loop per worker, and no more loops than jobs
        loops = min(self.config.concurrency, len(self.batches) * len(self._left))
        self._executor = ThreadPoolExecutor(max_workers=self.config.concurrency)
        # a Ctrl-C while the loops start calls no __exit__; until every loop
        # has started, the loops find no job, so such a Ctrl-C sends nothing
        with self._lock:
            self._workers = [self._executor.submit(self._work) for _ in range(loops)]
            self._jobs = ((r, b) for r in range(len(self._left)) for b in range(len(self.batches)))
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop()

    def _stop(self) -> None:
        self._stopping.set()
        self._executor.shutdown(wait=True)
        for worker in self._workers:
            worker.result()  # re-raises what a job loop did not catch

    def _work(self) -> None:
        while not self._stopping.is_set():
            with self._changed:
                repeat, batch_no = next(self._jobs, (None, None))
            if repeat is None:
                return
            try:
                outcome = self._run_batch(repeat, batch_no)
            except Exception as exc:  # the entry is doomed: start no further requests
                self._stopping.set()  # before the lock, which every job loop takes
                with self._changed:
                    self._failure = self._failure or exc
                    self._changed.notify_all()
                return
            with self._changed:
                self._outcomes[repeat][batch_no] = outcome
                self._left[repeat] -= 1
                self._changed.notify_all()

    def _run_batch(self, repeat: int, batch_no: int) -> tuple[ParsedLabels, int]:
        """The batch's merged labels and its request count: one request, then
        one re-ask listing only the entries the first left unresolved."""
        pending = self.batches[batch_no]
        merged = ParsedLabels()
        n_requests = 0
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
        return merged, n_requests

    def finished(self, repeat: int) -> list[tuple[ParsedLabels, int]]:
        """Each batch's outcome in `repeat`, in batch order, once all are done;
        the pool keeps no copy.

        Raises ClassificationAborted, once the batches in flight have ended,
        as soon as a batch of any repeat has failed. A KeyboardInterrupt
        stops the pool from starting further batches and is re-raised.
        """
        try:
            with self._lock:  # not Condition.__enter__, which a Ctrl-C can leave holding it
                # waits in slices: an interrupt that does not wake a blocked
                # wait (raised from another thread, or a signal that landed on
                # a worker) would otherwise surface only once the repeat ended
                while self._left[repeat] and not self._stopping.is_set():
                    self._changed.wait(_INTERRUPT_POLL_S)
        except BaseException:  # Ctrl-C: start no further requests, then re-raise
            self._stopping.set()
            raise
        if self._left[repeat]:  # a failing worker records its failure after it stops the pool
            self._stop()
        if self._failure is None:
            outcomes, self._outcomes[repeat] = self._outcomes[repeat], None
            return outcomes
        self._stop()
        total = len(self.batches) * len(self._left)
        raise ClassificationAborted(
            self._failure, total - sum(self._left), total
        ) from self._failure


def classify_corpus(pool: ClassificationPool, repeat: int) -> LlmClassification:
    """One repeat of the pool's corpus, in input order, once its batches are
    done; see `ClassificationPool.finished` for failures and interrupts."""
    outcomes = pool.finished(repeat)
    resolved: dict[int, str] = {}
    diagnostics = ParseDiagnostics()
    for parsed, _ in outcomes:
        resolved.update(parsed.resolved)
        diagnostics.merge(parsed.diagnostics)
    # after re-asks, "missing" means finally unresolved, not per-parse gaps
    diagnostics.missing_index = len(pool.items) - len(resolved)
    n_requests = sum(n for _, n in outcomes)

    return LlmClassification(
        doc_ids=tuple(i for i, _ in pool.items),
        resolved=resolved,
        diagnostics=diagnostics,
        n_requests=n_requests,
        # each batch sends one request and at most one re-ask
        n_reasks=n_requests - len(pool.batches),
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
