"""Config-driven experiment runner.

One experiment = one dataset, one shared stratified split, and a roster of
predictors. The split is preprocessed and vectorized once, and every
baseline trains and predicts on the same pair of TF-IDF matrices; LLM
predictors consume raw text by default (optionally cleaned, or both for an
ablation).
Every predictor is evaluated on the identical test documents, and all
artifacts land in a per-run directory.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime
from pathlib import Path

from . import __version__
from .baselines import DISPLAY_NAMES, canonical_baseline_name, hyperparameter_names, train_baseline
from .dataset import Document, LabeledCorpus, LabelSchema, load_corpus, stratified_split
from .features import fit_vectorizer
from .gateway import (
    AuditLog,
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
    format: str
    text_field: str
    label_field: str
    schema: LabelSchema

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


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigError(f"{where}: missing required field {key!r}")
    return mapping[key]


def _checked_object(data, where: str, allowed) -> dict:
    """`data` itself, once it is known to be an object with no key outside `allowed`."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown fields {unknown}")
    return data


def _parse_policy(data, where: str, default: CleaningPolicy) -> CleaningPolicy:
    if data is None:
        return default
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected an object of boolean flags")
    try:
        base = default.to_json_dict()
        base.update(data)
        return CleaningPolicy.from_json_dict(base)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# the keys of an llm entry that are not LlmRunConfig fields
_LLM_ENTRY_KEYS = ("name", "type", "provider", "task", "text_variant")


def _parse_llm_predictor(
    entry: dict, where: str, schema: LabelSchema, run_defaults: dict
) -> LlmSpec:
    provider = _require(entry, "provider", where)
    if not isinstance(provider, dict) or "type" not in provider:
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
        try:
            task = TaskDescription.from_json_dict(task_data)
        except TypeError as exc:
            raise ConfigError(f"{where}.task: {exc}") from exc

    run_fields = {k: v for k, v in entry.items() if k not in _LLM_ENTRY_KEYS}
    try:
        run = LlmRunConfig(**{"model": "mock", **run_defaults, **run_fields})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc

    spec = LlmSpec(
        name=entry.get("name", entry.get("model", "llm")),
        run=run,
        provider=provider,
        task=task,
        text_variant=text_variant,
    )
    try:
        _build_provider(spec, schema)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}.provider: {exc}") from exc
    return spec


_CONFIG_KEYS = (
    "dataset", "split", "cleaning", "llm_cleaning", "features", "repeat_count",
    "predictors", "output_dir",
)


def validate_config(raw: str) -> ExperimentConfig:
    """Parse and validate raw JSON config text, filling in defaults."""
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: line {exc.lineno}: {exc.msg}") from exc
    data = _checked_object(data, "config", _CONFIG_KEYS)

    ds = _checked_object(
        _require(data, "dataset", "config"), "dataset", [f.name for f in fields(DatasetSpec)]
    )
    schema_data = _checked_object(
        _require(ds, "schema", "dataset"), "dataset.schema", [f.name for f in fields(LabelSchema)]
    )
    try:
        schema = LabelSchema.from_json_dict(schema_data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"dataset.schema: {exc}") from exc
    fmt = ds.get("format", "csv")
    if fmt not in ("csv", "jsonl"):
        raise ConfigError(f"dataset.format: expected csv|jsonl, got {fmt!r}")
    dataset = DatasetSpec(
        path=str(_require(ds, "path", "dataset")),
        format=fmt,
        text_field=ds.get("text_field", "text"),
        label_field=ds.get("label_field", "label"),
        schema=schema,
    )

    split = _checked_object(data.get("split", {}), "split", ("test_size", "seed"))
    test_size = split.get("test_size", 150)
    if not isinstance(test_size, int) or test_size < 1:
        raise ConfigError(f"split.test_size: expected a positive integer, got {test_size!r}")
    split_seed = split.get("seed", 0)

    cleaning = _parse_policy(data.get("cleaning"), "cleaning", CleaningPolicy())
    llm_cleaning = _parse_policy(
        data.get("llm_cleaning"), "llm_cleaning", CleaningPolicy.tweet_cleaning()
    )

    feats = _checked_object(data.get("features", {}), "features", ("min_df", "l2_normalize"))
    min_df = feats.get("min_df", 2)
    if not isinstance(min_df, int) or min_df < 1:
        raise ConfigError(f"features.min_df: expected a positive integer, got {min_df!r}")
    l2_normalize = bool(feats.get("l2_normalize", True))

    # a top-level repeat_count is the default of every llm entry
    run_defaults = {"repeat_count": data["repeat_count"]} if "repeat_count" in data else {}

    entries = _require(data, "predictors", "config")
    if not isinstance(entries, list) or not entries:
        raise ConfigError("predictors: at least one predictor is required")
    predictors = []
    seen_names = set()
    for i, entry in enumerate(entries):
        where = f"predictors[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{where}: expected an object")
        if entry.get("type") == "llm" or "provider" in entry:
            spec = _parse_llm_predictor(entry, where, schema, run_defaults)
        else:
            name = str(_require(entry, "name", where))
            kind = canonical_baseline_name(name)
            if kind is None:
                raise ConfigError(f"{where}: unknown predictor {name!r}")
            _checked_object(entry, where, {"name", *hyperparameter_names(kind)})
            hyper = {k: v for k, v in entry.items() if k != "name"}
            spec = BaselineSpec(name=name, kind=kind, hyper=hyper)
        if spec.name in seen_names:
            raise ConfigError(f"{where}: duplicate predictor name {spec.name!r}")
        seen_names.add(spec.name)
        predictors.append(spec)

    return ExperimentConfig(
        dataset=dataset,
        test_size=test_size,
        split_seed=split_seed,
        cleaning=cleaning,
        llm_cleaning=llm_cleaning,
        min_df=min_df,
        l2_normalize=l2_normalize,
        predictors=tuple(predictors),
        output_dir=data.get("output_dir", "runs"),
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

    @property
    def is_aggregate(self) -> bool:
        return bool(self.aggregates)

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


def _build_provider(spec: LlmSpec, schema: LabelSchema):
    """The entry's provider, built from the provider object's own fields:
    its constructor is the one place that checks and defaults them."""
    settings = {k: v for k, v in spec.provider.items() if k != "type"}
    if spec.provider["type"] == "mock":
        return KeywordRuleProvider(schema, **settings)
    if spec.provider["type"] == "http":
        return HttpProvider(timeout_s=spec.run.timeout_s, **settings)
    raise ValueError(f"unknown provider type {spec.provider['type']!r}")


def _wrong_label(gold: str, schema: LabelSchema) -> str:
    """Deterministic in-schema label that is guaranteed not to equal gold.

    Used to score invalid (unresolved) LLM answers as incorrect without
    guessing a real prediction."""
    for label in schema.labels:
        if label != gold:
            return label
    raise AssertionError("schema has fewer than 2 labels")


def _evaluate_llm_run(outcome, docs: list[Document], schema: LabelSchema) -> EvalReport:
    truth = []
    pred = []
    n_invalid = 0
    for doc in docs:
        truth.append(doc.gold_label)
        label = outcome.resolved.get(doc.id)
        if label is None:
            n_invalid += 1
            label = _wrong_label(doc.gold_label, schema)
        pred.append(label)
    return build_report(truth, pred, schema, scores=None, n_invalid=n_invalid)


def _build_features(train: LabeledCorpus, test: LabeledCorpus, config: ExperimentConfig):
    """The shared TF-IDF pass: (train matrix, test matrix, diagnostics), one
    matrix row per document."""
    train_docs, n_empty_train = preprocess_corpus(train, config.cleaning)
    test_docs, n_empty_test = preprocess_corpus(test, config.cleaning)
    vectorizer = fit_vectorizer(
        train_docs, min_df=config.min_df, l2_normalize=config.l2_normalize
    )
    diagnostics = {
        "vocabulary_size": vectorizer.dim,
        "empty_after_cleaning": {"train": n_empty_train, "test": n_empty_test},
    }
    return vectorizer.transform_all(train_docs), vectorizer.transform_all(test_docs), diagnostics


def _run_baseline(
    spec: BaselineSpec, train: LabeledCorpus, test: LabeledCorpus, x_train, x_test, diagnostics
) -> PredictorResult:
    labels = [doc.gold_label for doc in train.documents]
    model = train_baseline(spec.kind, x_train, labels, train.schema, **spec.hyper)
    proba = model.predict_proba(x_test)
    truth = [doc.gold_label for doc in test.documents]
    pred = [test.schema.labels[i] for i in proba.argmax(axis=1)]
    return PredictorResult(
        name=spec.name,
        category="baseline",
        report=build_report(truth, pred, test.schema, scores=proba),
        diagnostics={
            **diagnostics,
            "evaluated_doc_ids": [doc.id for doc in test.documents],
        },
    )


def _run_llm_variant(
    spec: LlmSpec,
    variant: str,
    test: LabeledCorpus,
    config: ExperimentConfig,
    run_dir: Path,
    entry_name: str,
) -> PredictorResult:
    result = PredictorResult(name=entry_name, category="llm")
    provider = _build_provider(spec, test.schema)
    audit = AuditLog(run_dir / "audit" / f"{entry_name}.jsonl")
    docs = list(test.documents)
    if variant == "clean":
        text_of = lambda doc: clean_for_prompt(doc.text, config.llm_cleaning)
    else:
        text_of = None

    diagnostics_per_run = []
    for repeat in range(spec.run.repeat_count):
        outcome = classify_corpus(
            docs,
            test.schema,
            spec.task,
            spec.run,
            provider,
            audit=audit,
            audit_meta={"predictor": entry_name, "variant": variant, "repeat": repeat},
            text_of=text_of,
        )
        result.runs.append(_evaluate_llm_run(outcome, docs, test.schema))
        diagnostics_per_run.append(
            {
                "n_requests": outcome.n_requests,
                "n_reasks": outcome.n_reasks,
                "n_invalid": len(outcome.invalid_ids),
                **outcome.diagnostics.to_json_dict(),
            }
        )

    for metric in _AGGREGATED_METRICS:
        values = [getattr(r, metric) for r in result.runs]
        result.aggregates[metric] = aggregate_runs(values, metric=metric)
    result.diagnostics = {
        "variant": variant,
        "audit_log": str(Path("audit") / f"{entry_name}.jsonl"),
        "per_run": diagnostics_per_run,
        "evaluated_doc_ids": [doc.id for doc in docs],
    }
    return result


def _llm_entries(spec: LlmSpec) -> list[tuple[str, str]]:
    """(entry name, variant) pairs; 'both' fans out into an ablation pair."""
    if spec.text_variant == "both":
        return [(f"{spec.name}-original", "raw"), (f"{spec.name}-clean", "clean")]
    return [(spec.name, spec.text_variant)]


def run_experiment(config: ExperimentConfig, run_id: str | None = None) -> ExperimentResult:
    """Execute the full experiment and write artifacts under a run directory.

    One predictor failing is recorded and does not disturb the others;
    dataset or split failures abort. An existing run directory is refused,
    so a run never mixes its artifacts with an earlier run's.
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
    train, test = stratified_split(corpus, config.test_size, config.split_seed)

    run_dir.mkdir(parents=True)

    result = ExperimentResult(
        config=config,
        run_dir=run_dir,
        train_ids=sorted(doc.id for doc in train.documents),
        test_ids=sorted(doc.id for doc in test.documents),
    )

    # built once for all baselines; a failure here is recorded on each of them
    features = None
    if any(isinstance(spec, BaselineSpec) for spec in config.predictors):
        try:
            features = _build_features(train, test, config)
        except Exception as exc:  # noqa: BLE001 - re-raised per baseline below
            features = exc

    for spec in config.predictors:
        if isinstance(spec, BaselineSpec):
            entries = [(spec.name, None)]
        else:
            entries = _llm_entries(spec)
        for entry_name, variant in entries:
            try:
                if isinstance(spec, BaselineSpec):
                    if isinstance(features, Exception):
                        raise features
                    res = _run_baseline(spec, train, test, *features)
                else:
                    res = _run_llm_variant(spec, variant, test, config, run_dir, entry_name)
            except Exception as exc:  # noqa: BLE001 - crash isolation per predictor
                res = PredictorResult(
                    name=entry_name,
                    category="baseline" if isinstance(spec, BaselineSpec) else "llm",
                    status="error",
                    error=f"{type(exc).__name__}: {exc}",
                )
            result.predictors[entry_name] = res

    _check_fair_comparison(result)
    _write_artifacts(result)
    return result


def _check_fair_comparison(result: ExperimentResult) -> None:
    """Every successful predictor must have consumed the same test ids."""
    expected = sorted(result.test_ids)
    for res in result.predictors.values():
        if res.status != "ok":
            continue
        consumed = sorted(res.diagnostics.get("evaluated_doc_ids", []))
        if consumed != expected:
            raise AssertionError(
                f"fair-comparison violation: {res.name} evaluated {len(consumed)} "
                f"documents, expected the shared {len(expected)}-item test set"
            )


def _write_artifacts(result: ExperimentResult) -> None:
    run_dir = result.run_dir
    (run_dir / "reports").mkdir(exist_ok=True)
    (run_dir / "config.json").write_text(result.config.canonical_json() + "\n", "utf-8")
    manifest = {
        "config_hash": result.config.config_hash(),
        "zsbench_version": __version__,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    (run_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", "utf-8"
    )
    (run_dir / "split.json").write_text(
        json.dumps(
            {"train_ids": result.train_ids, "test_ids": result.test_ids},
            sort_keys=True,
        )
        + "\n",
        "utf-8",
    )
    for name, res in result.predictors.items():
        (run_dir / "reports" / f"{name}.json").write_text(
            json.dumps(res.to_json_dict(), indent=2, sort_keys=True) + "\n", "utf-8"
        )
    (run_dir / "report.json").write_text(emit_report(result, "json"), "utf-8")
    (run_dir / "report.md").write_text(emit_report(result, "markdown"), "utf-8")


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
        if res.is_aggregate:
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
        return json.dumps(result.to_json_dict(), indent=2, sort_keys=True) + "\n"
    if format not in ("markdown", "md"):
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
