"""Config-driven experiment runner.

One experiment = one dataset, one shared stratified split, and a roster of
predictors. The split is preprocessed and vectorized once, and every
baseline trains and predicts on the same pair of TF-IDF matrices; LLM
predictors consume raw text by default (optionally cleaned, or both for an
ablation).
Every predictor is evaluated on the identical test documents, and each
artifact lands in a per-run directory as soon as it is known.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import platform
import sys
import time
import typing
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from datetime import datetime
from pathlib import Path

from . import __version__
from .baselines import (
    DISPLAY_NAMES, canonical_baseline_name, check_hyperparameters, train_baseline, trainer,
)
from .dataset import CorpusError, LabeledCorpus, LabelSchema, load_corpus, stratified_split
from .features import fit_vectorizer
from .gateway import (
    AuditLog,
    ClassificationPool,
    HttpProvider,
    KeywordRuleProvider,
    LlmRunConfig,
    TaskDescription,
    classify_corpus,
)
from .metrics import EvalReport, RunAggregate, aggregate_runs, build_report
from .preprocess import CleaningPolicy, clean_for_prompt, preprocess_corpus

_AGGREGATED_METRICS = ("acc", "macro_f1", "mcc")


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the bad location."""


@dataclass(frozen=True)
class DatasetSpec:
    path: str
    schema: LabelSchema
    format: str = "csv"
    text_field: str = "text"
    label_field: str = "label"

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class BaselineSpec:
    name: str
    kind: str
    hyper: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"name": self.name, **self.hyper}


@dataclass(frozen=True)
class LlmSpec:
    name: str
    run: LlmRunConfig
    provider: dict
    task: TaskDescription
    text_variant: str = "raw"

    def to_json_dict(self) -> dict:
        run = asdict(self.run)
        if run["request_seed"] is None:
            del run["request_seed"]
        return {
            "name": self.name,
            "type": "llm",
            **run,
            "provider": self.provider,
            "task": self.task.to_json_dict(),
            "text_variant": self.text_variant,
        }


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSpec
    test_size: int
    split_seed: int
    cleaning: CleaningPolicy
    llm_cleaning: CleaningPolicy
    min_df: int
    l2_normalize: bool
    predictors: tuple
    output_dir: str

    def to_json_dict(self) -> dict:
        return {
            "dataset": self.dataset.to_json_dict(),
            "split": {"test_size": self.test_size, "seed": self.split_seed},
            "cleaning": self.cleaning.to_json_dict(),
            "llm_cleaning": self.llm_cleaning.to_json_dict(),
            "features": {"min_df": self.min_df, "l2_normalize": self.l2_normalize},
            "predictors": [p.to_json_dict() for p in self.predictors],
            "output_dir": self.output_dir,
        }

    def canonical_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()


# the JSON type of a parameter's values, by the type its annotation names
_JSON_TYPES = {
    str: "a string", int: "an integer", float: "a number", bool: "true or false",
    dict: "an object", list: "a list",
}


def _check_type(value, annotation, where: str) -> None:
    """Refuse `value` unless it is JSON of the type that `annotation` declares.

    An integer is also a number, and `true` is never one. Null fits only an
    `X | None`. A dataclass is an object (read on its own by `_fields`), a
    `list[str]` or `tuple[str, ...]` is a list of strings, and each value of
    a `dict[str, X]` is an X, located by its key.
    """
    args = typing.get_args(annotation)
    if type(None) in args:
        if value is None:
            return
        annotation, args = args[0], typing.get_args(args[0])
    kind = typing.get_origin(annotation) or annotation
    kind = dict if is_dataclass(kind) else list if kind is tuple else kind
    if kind is list and args:
        name = "a list of strings"
        fits = type(value) is list and all(type(item) is str for item in value)
    else:
        name = _JSON_TYPES[kind]
        fits = type(value) is kind or (kind is float and type(value) is int)
    if not fits:
        raise ConfigError(f"{where}: expected {name}, got {value!r}")
    if kind is dict and args:
        for key, item in value.items():
            _check_type(item, args[1], f"{where}[{key!r}]")


def _fields(target, data, where: str, given=()) -> dict:
    """`data`, read as the keyword arguments of `target`, the constructor or
    function that consumes it: `data` must be an object that names only
    parameters of `target` outside `given`, leaves out none without a
    default, and gives each a value of its annotation's JSON type.
    `where` locates `data`; "" is the top level of the config, whose
    fields are located by their names alone."""
    if type(data) is not dict:
        raise ConfigError(f"{where or 'config'}: expected an object, got {data!r}")
    params = inspect.signature(target, eval_str=True).parameters
    unknown = sorted(key for key in data if key not in params or key in given)
    if unknown:
        raise ConfigError(f"{where or 'config'}: unknown fields {unknown}")
    for name, param in params.items():
        if name in data:
            _check_type(data[name], param.annotation, f"{where}.{name}" if where else name)
        elif param.default is param.empty and name not in given:
            raise ConfigError(f"{where or 'config'}: missing required field {name!r}")
    return data


# the keys of an llm entry that are not LlmRunConfig fields
_LLM_ENTRY_KEYS = ("name", "type", "provider", "task", "text_variant")

# the parameters of every trainer that come from the data, not the config
_TRAINER_INPUTS = ("x", "labels", "schema")


def _parse_llm_predictor(
    entry: dict, where: str, schema: LabelSchema, repeat_count: int
) -> LlmSpec:
    # an entry with a provider is an llm entry; any other type is a typo
    if entry.get("type", "llm") != "llm":
        raise ConfigError(f'{where}.type: expected "llm", got {entry["type"]!r}')
    provider = entry.get("provider")
    if type(provider) is not dict or "type" not in provider:
        raise ConfigError(f"{where}.provider: expected an object with a 'type'")
    # only a mock entry may leave out the model name (it defaults to "mock" below)
    if provider["type"] == "http" and "model" not in entry:
        raise ConfigError(f"{where}: llm predictor needs a 'model' name")

    text_variant = entry.get("text_variant", "raw")
    if text_variant not in ("raw", "clean", "both"):
        raise ConfigError(
            f"{where}.text_variant: expected raw|clean|both, got {text_variant!r}"
        )

    task_data = entry.get("task")
    if task_data is None:
        task = TaskDescription.generic(schema.task_name)
    else:
        task = TaskDescription(**_fields(TaskDescription, task_data, f"{where}.task"))

    run_fields = {k: v for k, v in entry.items() if k not in _LLM_ENTRY_KEYS}
    run_fields = {"model": "mock", "repeat_count": repeat_count, **run_fields}
    _fields(LlmRunConfig, run_fields, where)
    try:
        run = LlmRunConfig(**run_fields)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc

    name = entry.get("name", entry.get("model", "llm"))
    _check_type(name, str, f"{where}.name")
    # the entry's report and audit log are files named after it
    if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        hint = "" if "name" in entry else "; give the entry a 'name'"
        raise ConfigError(f"{where}.name: {name!r} is not a plain file name{hint}")
    spec = LlmSpec(
        name=name,
        run=run,
        provider=provider,
        task=task,
        text_variant=text_variant,
    )
    _build_provider(spec, schema, f"{where}.provider")
    return spec


def _parse_baseline(entry: dict, where: str) -> BaselineSpec:
    name = entry.get("name")
    _check_type(name, str, f"{where}.name")
    kind = canonical_baseline_name(name)
    if kind is None:
        raise ConfigError(f"{where}: unknown predictor {name!r}")
    hyper = {k: v for k, v in entry.items() if k != "name"}
    _fields(trainer(kind), hyper, where, _TRAINER_INPUTS)
    try:
        check_hyperparameters(kind, hyper)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return BaselineSpec(name=name, kind=kind, hyper=hyper)


def validate_config(raw: str) -> ExperimentConfig:
    """Parse and validate raw JSON config text, filling in defaults."""
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: line {exc.lineno}: {exc.msg}") from exc
    return _experiment_config(**_fields(_experiment_config, data, ""))


def _split(test_size: int = 150, seed: int = 0) -> tuple[int, int]:
    """The `split` object's fields."""
    if test_size < 1:
        raise ConfigError(f"split.test_size: expected a positive integer, got {test_size!r}")
    return test_size, seed


def _features(min_df: int = 2, l2_normalize: bool = True) -> tuple[int, bool]:
    """The `features` object's fields."""
    if min_df < 1:
        raise ConfigError(f"features.min_df: expected a positive integer, got {min_df!r}")
    return min_df, l2_normalize


def _experiment_config(
    dataset: dict,
    predictors: list,
    split: dict | None = None,
    cleaning: dict | None = None,
    llm_cleaning: dict | None = None,
    features: dict | None = None,
    repeat_count: int = LlmRunConfig.repeat_count,
    output_dir: str = "runs",
) -> ExperimentConfig:
    """The experiment that the config's top-level fields describe; a
    top-level `repeat_count` is the default of every llm entry."""
    dataset = _fields(DatasetSpec, dataset, "dataset")
    schema_fields = _fields(LabelSchema, dataset["schema"], "dataset.schema")
    try:
        schema = LabelSchema(**schema_fields)
    except CorpusError as exc:
        raise ConfigError(f"dataset.schema: {exc}") from exc
    dataset = DatasetSpec(**{**dataset, "schema": schema})
    if dataset.format not in ("csv", "jsonl"):
        raise ConfigError(f"dataset.format: expected csv|jsonl, got {dataset.format!r}")

    test_size, split_seed = _split(**_fields(_split, split or {}, "split"))
    cleaning = _fields(CleaningPolicy, cleaning or {}, "cleaning")
    llm_cleaning = _fields(CleaningPolicy, llm_cleaning or {}, "llm_cleaning")
    min_df, l2_normalize = _features(**_fields(_features, features or {}, "features"))

    if not predictors:
        raise ConfigError("predictors: at least one predictor is required")
    specs = []
    seen_names = set()
    for i, entry in enumerate(predictors):
        where = f"predictors[{i}]"
        if type(entry) is not dict:
            raise ConfigError(f"{where}: expected an object, got {entry!r}")
        if entry.get("type") == "llm" or "provider" in entry:
            spec = _parse_llm_predictor(entry, where, schema, repeat_count)
        else:
            spec = _parse_baseline(entry, where)
        # an llm entry's reports and audit logs are named after its fanned-out entries
        names = [spec.name]
        if isinstance(spec, LlmSpec):
            names += [name for name, _ in _llm_entries(spec)]
        for name in names:
            if name in seen_names:
                raise ConfigError(f"{where}: duplicate predictor name {name!r}")
        seen_names.update(names)
        specs.append(spec)

    return ExperimentConfig(
        dataset=dataset,
        test_size=test_size,
        split_seed=split_seed,
        cleaning=CleaningPolicy(**cleaning),
        llm_cleaning=replace(CleaningPolicy.tweet_cleaning(), **llm_cleaning),
        min_df=min_df,
        l2_normalize=l2_normalize,
        predictors=tuple(specs),
        output_dir=output_dir,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    return validate_config(path.read_text(encoding="utf-8"))


@dataclass
class PredictorResult:
    """Either a completed evaluation or a recorded failure."""

    name: str
    category: str  # "baseline" | "llm"
    status: str = "ok"
    error: str | None = None
    report: EvalReport | None = None
    runs: list[EvalReport] = field(default_factory=list)
    aggregates: dict[str, RunAggregate] = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {"name": self.name, "category": self.category, "status": self.status}
        if self.error is not None:
            out["error"] = self.error
        if self.report is not None:
            out["report"] = self.report.to_json_dict()
        if self.runs:
            out["runs"] = [r.to_json_dict() for r in self.runs]
        if self.aggregates:
            out["aggregates"] = {k: v.to_json_dict() for k, v in self.aggregates.items()}
        if self.diagnostics:
            out["diagnostics"] = self.diagnostics
        return out


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    run_dir: Path
    train_ids: list[int]
    test_ids: list[int]
    predictors: dict[str, PredictorResult] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "task": self.config.dataset.schema.task_name,
            "labels": list(self.config.dataset.schema.labels),
            "test_size": len(self.test_ids),
            "train_size": len(self.train_ids),
            "predictors": {k: v.to_json_dict() for k, v in self.predictors.items()},
        }


def _build_provider(spec: LlmSpec, schema: LabelSchema, where: str = "provider"):
    """The entry's provider, built from the provider object's own fields:
    they are read against its constructor, which defaults them and checks
    their values. `where` locates the provider object in the config."""
    settings = {k: v for k, v in spec.provider.items() if k != "type"}
    if spec.provider["type"] == "mock":
        provider_class, given = KeywordRuleProvider, {"schema": schema}
    elif spec.provider["type"] == "http":
        provider_class, given = HttpProvider, {"timeout_s": spec.run.timeout_s}
    else:
        raise ConfigError(f"{where}: unknown provider type {spec.provider['type']!r}")
    _fields(provider_class, settings, where, given)
    try:
        return provider_class(**given, **settings)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _evaluate_llm_run(outcome, schema: LabelSchema, test_ids: list[int], y_test: list[int]):
    """The run's report. An unresolved answer is scored as wrong: it gets the
    code of the first schema label that is not gold."""
    answers = [outcome.resolved.get(i) for i in test_ids]
    resolved = iter(schema.codes(label for label in answers if label is not None))
    y_pred = [
        int(gold == 0) if label is None else next(resolved)
        for label, gold in zip(answers, y_test)
    ]
    return build_report(y_test, y_pred, schema, n_invalid=answers.count(None))


def _build_features(
    corpus: LabeledCorpus, train_ids: list[int], test_ids: list[int], config: ExperimentConfig
):
    """The shared TF-IDF pass: (train matrix, test matrix, diagnostics), one
    matrix row per id. Train and test go through one preprocessing call, so
    each distinct token is stemmed once per experiment."""
    tokens = preprocess_corpus([corpus.texts[i] for i in train_ids + test_ids], config.cleaning)
    train_docs, test_docs = tokens[: len(train_ids)], tokens[len(train_ids) :]
    vectorizer = fit_vectorizer(
        train_docs, min_df=config.min_df, l2_normalize=config.l2_normalize
    )
    diagnostics = {
        "vocabulary_size": vectorizer.dim,
        "empty_after_cleaning": {
            "train": sum(not doc for doc in train_docs),
            "test": sum(not doc for doc in test_docs),
        },
    }
    return vectorizer.transform_all(train_docs), vectorizer.transform_all(test_docs), diagnostics


def _run_baseline(
    spec: BaselineSpec, corpus: LabeledCorpus, train_ids: list[int], test_ids: list[int],
    y_test: list[int], x_train, x_test, diagnostics,
) -> PredictorResult:
    labels = [corpus.labels[i] for i in train_ids]
    model = train_baseline(spec.kind, x_train, labels, corpus.schema, **spec.hyper)
    proba = model.predict_proba(x_test)
    return PredictorResult(
        name=spec.name,
        category="baseline",
        report=build_report(y_test, proba.argmax(axis=1), corpus.schema, scores=proba),
        diagnostics={**diagnostics, "evaluated_doc_ids": test_ids},
    )


def _run_llm_variant(
    spec: LlmSpec,
    variant: str,
    corpus: LabeledCorpus,
    test_ids: list[int],
    y_test: list[int],
    config: ExperimentConfig,
    run_dir: Path,
    entry_name: str,
) -> PredictorResult:
    result = PredictorResult(name=entry_name, category="llm")
    provider = _build_provider(spec, corpus.schema)
    texts = [corpus.texts[i] for i in test_ids]
    if variant == "clean":  # once per entry: every repeat and re-ask sends the same text
        texts = clean_for_prompt(texts, config.llm_cleaning)
    items = list(zip(test_ids, texts))

    diagnostics_per_run = []
    audit = AuditLog(run_dir / "audit" / f"{entry_name}.jsonl")
    try:
        with ClassificationPool(
            items, corpus.schema, spec.task, spec.run, provider,
            audit=audit, audit_meta={"predictor": entry_name, "variant": variant},
        ) as pool:
            for repeat in range(spec.run.repeat_count):
                outcome = classify_corpus(pool, repeat)
                result.runs.append(_evaluate_llm_run(outcome, corpus.schema, test_ids, y_test))
                diagnostics_per_run.append(
                    {
                        "n_requests": outcome.n_requests,
                        "n_reasks": outcome.n_reasks,
                        "n_invalid": len(outcome.invalid_ids),
                        **outcome.diagnostics.to_json_dict(),
                    }
                )
    finally:
        # leaving the pool waited for the requests in flight
        audit.close()
        if isinstance(provider, HttpProvider):
            provider.close()

    for metric in _AGGREGATED_METRICS:
        values = [getattr(r, metric) for r in result.runs]
        result.aggregates[metric] = aggregate_runs(values, metric=metric)
    result.diagnostics = {
        "variant": variant,
        "audit_log": str(Path("audit") / f"{entry_name}.jsonl"),
        "per_run": diagnostics_per_run,
        "evaluated_doc_ids": test_ids,
    }
    return result


def _llm_entries(spec: LlmSpec) -> list[tuple[str, str]]:
    """(entry name, variant) pairs; 'both' fans out into an ablation pair."""
    if spec.text_variant == "both":
        return [(f"{spec.name}-original", "raw"), (f"{spec.name}-clean", "clean")]
    return [(spec.name, spec.text_variant)]


def _write(path: Path, text: str) -> None:
    """Write `text` to `path` through `<path>.partial` and `os.replace`, so a
    run stopped part-way never leaves a torn file."""
    partial = path.with_name(path.name + ".partial")
    partial.write_text(text, "utf-8")
    os.replace(partial, path)


def _json(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def run_experiment(config: ExperimentConfig, run_id: str | None = None) -> ExperimentResult:
    """Execute the full experiment, writing each artifact under a run
    directory as soon as it is known, so a stopped run keeps what it finished.

    One predictor failing is recorded and does not disturb the others;
    dataset or split failures abort before the directory is made. An
    existing run directory is refused, so a run never mixes its artifacts
    with an earlier run's.
    """
    if run_id is None:
        run_id = datetime.now().strftime("run-%Y%m%d-%H%M%S-%f")
    run_dir = Path(config.output_dir) / run_id
    if run_dir.exists():
        raise ConfigError(f"run directory {run_dir} already exists; choose another run id")

    corpus = load_corpus(
        config.dataset.path,
        config.dataset.format,
        config.dataset.text_field,
        config.dataset.label_field,
        config.dataset.schema,
    )
    train_ids, test_ids = stratified_split(corpus, config.test_size, config.split_seed)
    y_test = corpus.schema.codes(corpus.labels[i] for i in test_ids)

    run_dir.mkdir(parents=True)
    (run_dir / "reports").mkdir()
    _write(run_dir / "config.json", config.canonical_json() + "\n")
    _write(run_dir / "manifest.json", _json({
        "config_hash": config.config_hash(),
        "zsbench_version": __version__,
        "python": sys.version.split()[0],
        # not platform.platform(), which runs `uname -p` in a child process
        "platform": "-".join((platform.system(), platform.release(), platform.machine())),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }))
    split = {"train_ids": train_ids, "test_ids": test_ids}
    _write(run_dir / "split.json", json.dumps(split, sort_keys=True) + "\n")
    result = ExperimentResult(
        config=config, run_dir=run_dir, train_ids=train_ids, test_ids=test_ids
    )

    # built once for all baselines; a failure here is recorded on each of them
    features = None
    if any(isinstance(spec, BaselineSpec) for spec in config.predictors):
        try:
            features = _build_features(corpus, train_ids, test_ids, config)
        except Exception as exc:  # noqa: BLE001 - re-raised per baseline below
            features = exc

    for spec in config.predictors:
        if isinstance(spec, BaselineSpec):
            category, entries = "baseline", [(spec.name, None)]
        else:
            category, entries = "llm", _llm_entries(spec)
        for entry_name, variant in entries:
            try:
                if isinstance(spec, BaselineSpec):
                    if isinstance(features, Exception):
                        raise features
                    res = _run_baseline(spec, corpus, train_ids, test_ids, y_test, *features)
                else:
                    res = _run_llm_variant(
                        spec, variant, corpus, test_ids, y_test, config, run_dir, entry_name
                    )
            except Exception as exc:  # noqa: BLE001 - crash isolation per predictor
                res = PredictorResult(entry_name, category, "error", f"{type(exc).__name__}: {exc}")
            # a predictor that did not score the shared test ids is not compared
            consumed = sorted(res.diagnostics.get("evaluated_doc_ids", []))
            if res.status == "ok" and consumed != test_ids:
                res = PredictorResult(entry_name, category, "error", (
                    f"fair-comparison violation: {entry_name} evaluated {len(consumed)} "
                    f"documents, expected the shared {len(test_ids)}-item test set"
                ))
            result.predictors[entry_name] = res
            _write(run_dir / "reports" / f"{entry_name}.json", _json(res.to_json_dict()))

    _write(run_dir / "report.json", emit_report(result, "json"))
    _write(run_dir / "report.md", emit_report(result, "markdown"))
    return result


def _format_metric(value: float | None) -> str:
    return "-" if value is None else f"{value:.4f}"


def _report_rows(result: ExperimentResult, category: str) -> list[str]:
    rows = []
    for name, res in result.predictors.items():
        if res.category != category or res.status != "ok":
            continue
        display = DISPLAY_NAMES.get(
            canonical_baseline_name(name) or "", name
        ) if category == "baseline" else name
        if res.aggregates:
            acc = res.aggregates["acc"].format()
            f1 = res.aggregates["macro_f1"].format()
            auc = "-"
        else:
            acc = _format_metric(res.report.acc)
            f1 = _format_metric(res.report.macro_f1)
            auc = _format_metric(res.report.auc)
        rows.append(f"| {display} | {acc} | {f1} | {auc} |")
    return rows


def emit_report(result: ExperimentResult, format: str = "markdown") -> str:
    """Render the comparison report; markdown mirrors the ACC/F1/AUC table
    layout with traditional ML and LLM sections."""
    if not result.predictors:
        raise ValueError("empty result: no predictors were run")
    if format == "json":
        return _json(result.to_json_dict())
    if format != "markdown":
        raise ValueError(f"unknown report format {format!r}")

    schema = result.config.dataset.schema
    lines = [
        f"# {schema.task_name}: zero-shot benchmark",
        "",
        f"Labels: {', '.join(schema.labels)}.",
        f"Test set: {len(result.test_ids)} documents; train set: {len(result.train_ids)}.",
        "",
    ]
    header = ["| Model | ACC | F1 | AUC |", "|-------|-----|----|-----|"]
    baseline_rows = _report_rows(result, "baseline")
    llm_rows = _report_rows(result, "llm")
    if baseline_rows:
        lines += ["## Traditional ML", ""] + header + baseline_rows + [""]
    if llm_rows:
        lines += ["## LLM", ""] + header + llm_rows + [""]
    failures = [
        f"- {res.name}: {res.error}"
        for res in result.predictors.values()
        if res.status != "ok"
    ]
    if failures:
        lines += ["## Failures", ""] + failures + [""]
    return "\n".join(lines)
