"""Outside-in tracing of one zsbench run.

The tracer wraps the public functions each layer exposes, at the names the
orchestrator and gateway look them up under (``from x import y`` binds a
second name, so ``zsbench.orchestrator.preprocess_corpus`` is patched, not
only ``zsbench.preprocess.preprocess_corpus``). Wrappers call the original
unchanged and only record a span: name, parent, thread, start and end.
Spans stay in memory; the worker writes them out when the run is over.

A hook whose target no longer exists is skipped, and the metrics that rest
on it are reported as unmeasured instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import threading
import time

PREDICT_METHODS = ("predict_all", "predict_proba", "predict")
BASELINES = ("mnb", "logreg", "knn", "dt", "rf")
_ALIASES = {"lg": "logreg", "lr": "logreg"}


def _n(value) -> int | None:
    try:
        return len(value)
    except TypeError:
        return None


# span name, module, attribute, function of (args, result) giving span attributes
SPAN_HOOKS = [
    ("dataset.load", "zsbench.orchestrator", "load_corpus", lambda a, r: {"docs": _n(r)}),
    ("dataset.split", "zsbench.orchestrator", "stratified_split", None),
    ("preprocess", "zsbench.orchestrator", "preprocess_corpus", lambda a, r: {"docs": _n(a[0])}),
    ("features.fit", "zsbench.orchestrator", "fit_vectorizer", lambda a, r: {"vocab": r.dim}),
    ("features.transform", "zsbench.features", "Vectorizer.transform_all", None),
    ("baselines.fit", "zsbench.orchestrator", "train_baseline", None),
    ("metrics", "zsbench.orchestrator", "build_report", None),
    ("metrics", "zsbench.orchestrator", "aggregate_runs", None),
    ("gateway.classify", "zsbench.orchestrator", "classify_corpus",
     lambda a, r: {"requests": r.n_requests, "reasks": r.n_reasks,
                   "docs": len(r.doc_ids), "invalid": len(r.invalid_ids)}),
    ("gateway.prompts", "zsbench.gateway.classify", "build_prompt", None),
    ("gateway.client", "zsbench.gateway.classify", "complete_chat",
     lambda a, r: {"retries": r.retries}),
    ("gateway.parsing", "zsbench.gateway.classify", "parse_classification",
     lambda a, r: {"bytes": len(a[0]), "unparseable": r.diagnostics.unparseable}),
    ("gateway.audit", "zsbench.gateway.classify", "AuditLog.append", None),
]

# counted, not spanned: these run too often for a span each
COUNT_HOOKS = [
    ("porter.stem", "zsbench.preprocess", "stem"),
    ("gateway.attempt", "zsbench.gateway.client", "HttpProvider.complete"),
    ("gateway.attempt", "zsbench.gateway.mock", "KeywordRuleProvider.complete"),
]

# metric-name prefix -> the hook it rests on; the first matching prefix wins
_NEEDS = [
    ("preprocess.docs_ratio", ("preprocess", "dataset.load")),
    ("preprocess.", ("preprocess",)),
    ("porter.", ("porter.stem",)),
    ("features.transform", ("features.transform",)),
    ("features.", ("features.fit",)),
    ("baselines.", ("baselines.fit",)),
    ("dataset.load", ("dataset.load",)),
    ("dataset.split", ("dataset.split",)),
    ("metrics.", ("metrics",)),
    ("gateway.prompts", ("gateway.prompts",)),
    ("gateway.client.attempts", ("gateway.attempt",)),
    ("gateway.client", ("gateway.client",)),
    ("gateway.parsing", ("gateway.parsing",)),
    ("gateway.classify.audit", ("gateway.audit",)),
    ("gateway.classify", ("gateway.classify",)),
    # self time is what the main-thread spans leave uncovered
    ("orchestrator.", ("dataset.load", "dataset.split", "preprocess", "features.fit",
                       "features.transform", "baselines.fit", "metrics", "gateway.classify")),
]


def _resolve(module: str, attr: str):
    """(owner object, final attribute name), or None when either is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, name, None)):
        return None
    return owner, name


class Tracer:
    """Records spans and counts while installed; restores every patch on exit."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stem_inputs: dict[str, int] = {}
        self.stem_outputs: set[str] = set()
        self.counts: dict[str, int] = {}
        self.installed: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for name, module, attr, note in SPAN_HOOKS:
            target = _resolve(module, attr)
            if target is not None:
                self._patch(*target, self._spanned(name, getattr(*target), note))
                self.installed.add(name)
        for name, module, attr in COUNT_HOOKS:
            target = _resolve(module, attr)
            if target is not None:
                self._patch(*target, self._counted(name, getattr(*target)))
                self.installed.add(name)
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name: str, wrapper) -> None:
        # keep the raw class attribute so staticmethods etc. restore exactly
        original = owner.__dict__[name] if name in getattr(owner, "__dict__", {}) else getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _spanned(self, name: str, fn, note):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(span)
                if name == "baselines.fit":
                    tracer._note_baseline(span, args, result)
                elif note is not None and result is not None:
                    try:
                        span.update(note(args, result))
                    except Exception:  # noqa: BLE001 - tracing never breaks the run
                        pass

        return wrapper

    def _counted(self, name: str, fn):
        tracer = self
        if name == "porter.stem":

            @functools.wraps(fn)
            def stem(word):
                out = fn(word)
                with tracer._lock:
                    tracer.stem_inputs[word] = tracer.stem_inputs.get(word, 0) + 1
                    tracer.stem_outputs.add(out)
                return out

            return stem

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with tracer._lock:
                tracer.counts[name] = tracer.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def _note_baseline(self, span: dict, args, model) -> None:
        """Name the fit span after its baseline and time the model's predict."""
        kind = str(args[0]).strip().lower() if args else "?"
        kind = _ALIASES.get(kind, kind)
        span["kind"] = kind
        if model is None:
            return
        for method in PREDICT_METHODS:
            fn = getattr(model, method, None)
            if callable(fn):
                try:
                    setattr(model, method, self._spanned(f"baselines.predict.{kind}", fn, None))
                    self.installed.add(f"baselines.predict.{kind}")
                except AttributeError:
                    pass
                return

    def _open(self, name: str) -> dict:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = {
            "id": next(self._ids),
            "name": name,
            "parent": stack[-1]["id"] if stack else None,
            "thread": threading.get_ident(),
            "start": time.perf_counter(),
        }
        stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._local.stack.pop()
        self.spans.append(span)

    # -- summary ------------------------------------------------------------

    def summary(self, run_s: float, main_thread: int) -> dict[str, float | None]:
        """Per-layer metrics of the traced run; None marks an unmeasured one."""
        by_name: dict[str, list[dict]] = {}
        for span in self.spans:
            by_name.setdefault(span["name"], []).append(span)

        def dur(name: str) -> float:
            return sum(s["end"] - s["start"] for s in by_name.get(name, ()))

        def total(name: str, key: str) -> int:
            return sum(s.get(key) or 0 for s in by_name.get(name, ()))

        def count(name: str) -> int:
            return len(by_name.get(name, ()))

        corpus_docs = max((s.get("docs") or 0 for s in by_name.get("dataset.load", ())), default=0)
        stem_calls = sum(self.stem_inputs.values())
        fits = by_name.get("features.fit", ())
        client = sorted(s["end"] - s["start"] for s in by_name.get("gateway.client", ()))
        parse = [s["end"] - s["start"] for s in by_name.get("gateway.parsing", ())]
        requests = total("gateway.classify", "requests")
        reasks = total("gateway.classify", "reasks")
        llm_docs = total("gateway.classify", "docs")
        top = sum(s["end"] - s["start"] for s in self.spans
                  if s["parent"] is None and s["thread"] == main_thread)

        out = {
            "preprocess.s": dur("preprocess"),
            "preprocess.calls": count("preprocess"),
            "preprocess.docs_ratio": _ratio(total("preprocess", "docs"), corpus_docs),
            "porter.stem_calls": stem_calls,
            "porter.distinct_ratio": _ratio(len(self.stem_inputs), stem_calls),
            "features.fit_s": dur("features.fit"),
            "features.transform_s": dur("features.transform"),
            "features.fits": len(fits),
            "features.vocab": max((s.get("vocab") or 0 for s in fits), default=0),
            "dataset.load_s": dur("dataset.load"),
            "dataset.split_s": dur("dataset.split"),
            "metrics.s": dur("metrics"),
            "gateway.prompts.s": dur("gateway.prompts"),
            "gateway.client.requests": len(client),
            "gateway.client.attempts": self.counts.get("gateway.attempt", 0),
            "gateway.client.retries": total("gateway.client", "retries"),
            "gateway.client.s": sum(client),
            "gateway.client.latency_p50_s": _quantile(client, 0.50),
            "gateway.client.latency_p95_s": _quantile(client, 0.95),
            "gateway.parsing.calls": len(parse),
            "gateway.parsing.bytes": total("gateway.parsing", "bytes"),
            "gateway.parsing.s": sum(parse),
            "gateway.parsing.max_s": max(parse, default=0.0),
            "gateway.parsing.unparseable": total("gateway.parsing", "unparseable"),
            "gateway.classify.s": dur("gateway.classify"),
            "gateway.classify.reask_ratio": _ratio(reasks, requests - reasks),
            "gateway.classify.invalid_frac": _ratio(total("gateway.classify", "invalid"), llm_docs),
            "gateway.classify.audit_s": dur("gateway.audit"),
            "orchestrator.self_s": run_s - top,
        }
        for kind in BASELINES:
            fit = [s for s in by_name.get("baselines.fit", ()) if s.get("kind") == kind]
            out[f"baselines.{kind}.fit_s"] = sum(s["end"] - s["start"] for s in fit)
            predicted = f"baselines.predict.{kind}"
            out[f"baselines.{kind}.predict_s"] = (
                dur(predicted) if predicted in self.installed or not fit else None
            )
        for metric in out:
            needs = next(hooks for prefix, hooks in _NEEDS if metric.startswith(prefix))
            if any(hook not in self.installed for hook in needs):
                out[metric] = None
        return out

    def stem_stats(self) -> dict[str, int]:
        return {"distinct_inputs": len(self.stem_inputs), "distinct_stems": len(self.stem_outputs)}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _quantile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[round(q * 100) - 1]
