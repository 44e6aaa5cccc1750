from __future__ import annotations

import http.client
import inspect
import json
import math
import re
import threading
import time
from dataclasses import replace

import pytest

from conftest import fixture_experiment_config, mock_llm_predictor
from test_tracer_hooks import load_tracing
from zsbench import baselines, cli, orchestrator, preprocess
from zsbench.gateway import HttpProvider, KeywordRuleProvider, LlmRunConfig, TaskDescription
from zsbench.gateway import classify as gateway_classify
from zsbench.dataset import LabelSchema, load_corpus
from zsbench.orchestrator import (
    ConfigError,
    emit_report,
    run_experiment,
    validate_config,
)


def minimal_config(fixture_corpus_path, tmp_path, predictors=None, **overrides) -> str:
    predictors = predictors if predictors is not None else [{"name": "mnb"}]
    return fixture_experiment_config(fixture_corpus_path, tmp_path / "runs", predictors, **overrides)


def http_llm_predictor(**provider_fields) -> dict:
    return {
        "name": "gpt",
        "type": "llm",
        "model": "gpt-4-1106-preview",
        "provider": {"type": "http", "endpoint": "https://api.example.com/v1", **provider_fields},
    }


# every object the config reader reads, and the parameters that are not read from the config
READER_TARGETS = [
    (orchestrator._experiment_config, ()),
    (orchestrator._split, ()),
    (orchestrator._features, ()),
    (orchestrator.DatasetSpec, ()),
    (LabelSchema, ()),
    (preprocess.CleaningPolicy, ()),
    (LlmRunConfig, ()),
    (TaskDescription, ()),
    (KeywordRuleProvider, ("schema",)),
    (HttpProvider, ("timeout_s",)),
    *((baselines.trainer(kind), orchestrator._TRAINER_INPUTS) for kind in baselines.DISPLAY_NAMES),
]

JSON_TYPE_NAMES = ("a string", "an integer", "a number", "true or false", "an object", "a list",
                   "a list of strings")


class TestValidateConfig:
    @pytest.mark.parametrize(
        "target, given", READER_TARGETS, ids=[t.__name__ for t, _ in READER_TARGETS]
    )
    def test_every_read_parameter_has_a_json_type(self, target, given):
        # no JSON value is an object(), so each probe that fails must name the type it expected
        expected = "|".join(map(re.escape, JSON_TYPE_NAMES))
        for name, param in inspect.signature(target, eval_str=True).parameters.items():
            if name in given:
                continue
            for probe in (object(), [object()], {"key": object()}):
                try:
                    orchestrator._check_type(probe, param.annotation, name)
                except ConfigError as exc:
                    assert re.fullmatch(rf"{name}(\['key'\])?: expected ({expected}), got .*",
                                        str(exc)), str(exc)
                else:
                    assert type(probe) in (list, dict), (name, param.annotation)

    def test_minimal_config_gets_defaults(self, fixture_corpus_path, tmp_path):
        config = validate_config(minimal_config(fixture_corpus_path, tmp_path))
        assert config.test_size == 150
        assert config.min_df == 2
        assert len(config.predictors) == 1
        assert config.predictors[0].kind == "mnb"

    def test_unknown_predictor_rejected(self, fixture_corpus_path, tmp_path):
        raw = minimal_config(fixture_corpus_path, tmp_path, predictors=[{"name": "SVM"}])
        with pytest.raises(ConfigError, match="unknown predictor 'SVM'"):
            validate_config(raw)

    @pytest.mark.parametrize("value", ["banana", 5, None, "LLM"])
    def test_llm_entry_of_another_type_rejected(self, fixture_corpus_path, tmp_path, value):
        raw = minimal_config(
            fixture_corpus_path, tmp_path, predictors=[mock_llm_predictor(type=value)]
        )
        expected = f'predictors[0].type: expected "llm", got {value!r}'
        with pytest.raises(ConfigError, match=f"^{re.escape(expected)}$"):
            validate_config(raw)

    def test_llm_entry_may_leave_out_its_type(self, fixture_corpus_path, tmp_path):
        entry = mock_llm_predictor()
        del entry["type"]
        config = validate_config(minimal_config(fixture_corpus_path, tmp_path, predictors=[entry]))
        assert config.to_json_dict()["predictors"][0]["type"] == "llm"

    @pytest.mark.parametrize("first", [True, False])
    def test_llm_entry_name_colliding_after_fan_out_rejected(
        self, fixture_corpus_path, tmp_path, first
    ):
        # "both" runs entries m-original and m-clean; a second m-clean would
        # overwrite its report and truncate its audit log
        both = mock_llm_predictor("m", text_variant="both")
        clean = mock_llm_predictor("m-clean")
        predictors = [clean, both] if first else [both, clean]
        raw = minimal_config(fixture_corpus_path, tmp_path, predictors=predictors)
        expected = "predictors[1]: duplicate predictor name 'm-clean'"
        with pytest.raises(ConfigError, match=f"^{re.escape(expected)}$"):
            validate_config(raw)

    @pytest.mark.parametrize(
        "name", ["", ".", "..", "a/b", "../up", "a\\b", "a\0b", None],
        ids=["empty", "dot", "dotdot", "slash", "parent", "backslash", "nul", "model-default"],
    )
    def test_llm_entry_name_that_is_not_a_file_name_rejected(
        self, fixture_corpus_path, tmp_path, name
    ):
        # the name is a file name in reports/ and audit/; it defaults to the model id
        entry = mock_llm_predictor(name, repeat_count=1)
        if name is None:
            del entry["name"]
            entry["model"] = name = "meta-llama/Llama-2-7b"
        raw = minimal_config(fixture_corpus_path, tmp_path, predictors=[{"name": "mnb"}, entry])
        expected = f"predictors[1].name: {name!r} is not a plain file name"
        if "name" not in entry:
            expected += "; give the entry a 'name'"
        with pytest.raises(ConfigError, match=f"^{re.escape(expected)}$"):
            validate_config(raw)

    def test_model_id_with_a_slash_runs_under_its_own_name(self, fixture_corpus_path, tmp_path):
        entry = mock_llm_predictor("llama", model="meta-llama/Llama-2-7b", repeat_count=1)
        raw = minimal_config(fixture_corpus_path, tmp_path, predictors=[entry])
        result = run_experiment(validate_config(raw), run_id="slash-model")
        assert result.predictors["llama"].status == "ok"
        assert (result.run_dir / "reports" / "llama.json").is_file()
        assert (result.run_dir / "audit" / "llama.jsonl").is_file()

    def test_llm_defaults_match_protocol(self, fixture_corpus_path, tmp_path):
        raw = minimal_config(
            fixture_corpus_path, tmp_path, predictors=[mock_llm_predictor()]
        )
        config = validate_config(raw)
        spec = config.predictors[0]
        assert spec.run.temperature == 0.01
        assert spec.run.top_p == 0.9
        assert spec.run.repeat_count == 5
        assert spec.run.batch_size == 25
        assert spec.text_variant == "raw"

    def test_missing_dataset_path(self, tmp_path):
        raw = json.dumps(
            {
                "dataset": {"schema": {"task_name": "t", "labels": ["a", "b"]}},
                "predictors": [{"name": "mnb"}],
            }
        )
        with pytest.raises(ConfigError, match="dataset.*path"):
            validate_config(raw)

    def test_mock_rules_must_match_schema(self, fixture_corpus_path, tmp_path):
        predictor = mock_llm_predictor()
        predictor["provider"]["rules"] = {"Groceries": ["milk"]}
        raw = minimal_config(fixture_corpus_path, tmp_path, predictors=[predictor])
        with pytest.raises(ConfigError, match="Groceries"):
            validate_config(raw)

    def test_lg_alias_accepted(self, fixture_corpus_path, tmp_path):
        raw = minimal_config(fixture_corpus_path, tmp_path, predictors=[{"name": "LG"}])
        config = validate_config(raw)
        assert config.predictors[0].kind == "logreg"

    def test_unknown_hyperparameter_located(self, fixture_corpus_path, tmp_path):
        raw = minimal_config(
            fixture_corpus_path, tmp_path, predictors=[{"name": "knn", "kk": 3}]
        )
        with pytest.raises(ConfigError, match=r"predictors\[0\].*kk"):
            validate_config(raw)

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"name": "knn", "k": True}, "k: expected an integer, got True"),
            ({"name": "knn", "k": "5"}, "k: expected an integer, got '5'"),
            ({"name": "knn", "k": 5.0}, "k: expected an integer, got 5.0"),
            ({"name": "mnb", "alpha": "1"}, "alpha: expected a number, got '1'"),
            ({"name": "mnb", "alpha": True}, "alpha: expected a number, got True"),
            ({"name": "rf", "n_trees": 2.5}, "n_trees: expected an integer, got 2.5"),
            ({"name": "rf", "bootstrap": 1}, "bootstrap: expected true or false, got 1"),
            ({"name": "rf", "feature_subsample": None},
             "feature_subsample: expected a string, got None"),
            ({"name": "lg", "epochs": [200]}, "epochs: expected an integer, got [200]"),
        ],
    )
    def test_wrongly_typed_hyperparameter_rejected(
        self, fixture_corpus_path, tmp_path, entry, message
    ):
        raw = minimal_config(fixture_corpus_path, tmp_path, predictors=[{"name": "dt"}, entry])
        with pytest.raises(ConfigError, match=rf"^predictors\[1\]\.{re.escape(message)}$"):
            validate_config(raw)

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"name": "knn", "k": 4}, "k must be odd, got 4"),
            ({"name": "mnb", "alpha": 0.0}, "alpha must be positive, got 0.0"),
            ({"name": "mnb", "alpha": math.nan}, "alpha must be positive, got nan"),
            ({"name": "lg", "epochs": -1}, "epochs must be non-negative, got -1"),
            ({"name": "lg", "learning_rate": 0.0}, "learning_rate must be positive, got 0.0"),
            ({"name": "lg", "learning_rate": math.nan}, "learning_rate must be positive, got nan"),
            ({"name": "rf", "n_trees": 0}, "n_trees must be >= 1, got 0"),
            ({"name": "rf", "feature_subsample": "half"},
             "feature_subsample must be 'sqrt' or 'all', got 'half'"),
            ({"name": "dt", "max_depth": 0}, "max_depth must be >= 1, got 0"),
            ({"name": "lg", "l2_lambda": -1.0}, "l2_lambda must be non-negative, got -1.0"),
            ({"name": "lg", "l2_lambda": math.nan}, "l2_lambda must be non-negative, got nan"),
        ],
    )
    def test_out_of_range_hyperparameter_rejected(
        self, fixture_corpus_path, tmp_path, entry, message
    ):
        # the trainer's own check, run at validation with the entry located
        raw = minimal_config(fixture_corpus_path, tmp_path, predictors=[{"name": "dt"}, entry])
        with pytest.raises(ConfigError, match=rf"^predictors\[1\]: {re.escape(message)}$"):
            validate_config(raw)

    def test_hyperparameter_of_its_default_type_accepted(self, fixture_corpus_path, tmp_path):
        # an integer is also a number: alpha 1 stays the integer the config gave
        entries = [{"name": "mnb", "alpha": 1}, {"name": "lg", "learning_rate": 0.5},
                   {"name": "rf", "bootstrap": False, "feature_subsample": "all", "n_trees": 3}]
        config = validate_config(minimal_config(fixture_corpus_path, tmp_path, predictors=entries))
        assert [spec.hyper for spec in config.predictors] == [
            {k: v for k, v in entry.items() if k != "name"} for entry in entries
        ]
        assert type(config.predictors[0].hyper["alpha"]) is int

    def test_round_trip_is_lossless(self, fixture_corpus_path, tmp_path):
        raw = minimal_config(
            fixture_corpus_path,
            tmp_path,
            predictors=[{"name": "rf", "n_trees": 10}, mock_llm_predictor()],
            llm_cleaning={"apply_stemming": True, "remove_urls": False},
        )
        config = validate_config(raw)
        assert config.llm_cleaning == replace(
            preprocess.CleaningPolicy.tweet_cleaning(), apply_stemming=True, remove_urls=False
        )
        rebuilt = validate_config(config.canonical_json())
        assert rebuilt.to_json_dict() == config.to_json_dict()
        assert rebuilt.llm_cleaning == config.llm_cleaning
        assert rebuilt.config_hash() == config.config_hash()

    def test_not_json(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            validate_config("still not { json")

    @staticmethod
    def _every_level(fixture_corpus_path, tmp_path) -> dict:
        """A valid config with an object at each level that takes fields."""
        task = {"subject": "products", "item_singular": "product",
                "item_plural": "products", "venue": "the shop"}
        predictors = [
            {"name": "mnb"},
            mock_llm_predictor(task=task),
            http_llm_predictor(api_key_env="EXAMPLE_API_KEY"),
        ]
        raw = minimal_config(
            fixture_corpus_path, tmp_path, predictors, features={"min_df": 2},
            cleaning={"remove_digits": False}, llm_cleaning={"remove_stopwords": False},
        )
        return json.loads(raw)

    @pytest.mark.parametrize(
        "path, where, field",
        [
            ((), r"config", "feautres"),
            (("dataset",), r"dataset", "txt_field"),
            (("dataset", "schema"), r"dataset\.schema", "label_order"),
            (("split",), r"split", "test_sise"),
            (("features",), r"features", "min_dff"),
            (("cleaning",), r"cleaning", "remove_url"),
            (("predictors", 0), r"predictors\[0\]", "alfa"),
            (("predictors", 1), r"predictors\[1\]", "temprature"),
            (("predictors", 1, "provider"), r"predictors\[1\]\.provider", "default_lable"),
            (("predictors", 1, "task"), r"predictors\[1\]\.task", "subjekt"),
            (("predictors", 2, "provider"), r"predictors\[2\]\.provider", "api_key"),
        ],
        ids=["top", "dataset", "schema", "split", "features", "cleaning", "baseline", "llm",
             "mock-provider", "task", "http-provider"],
    )
    def test_unknown_field_rejected_with_location(
        self, fixture_corpus_path, tmp_path, path, where, field
    ):
        data = self._every_level(fixture_corpus_path, tmp_path)
        validate_config(json.dumps(data))  # valid before the unknown field goes in
        target = data
        for key in path:
            target = target[key]
        target[field] = 1
        with pytest.raises(ConfigError, match=rf"^{where}: .*'{field}'"):
            validate_config(json.dumps(data))

    @pytest.mark.parametrize(
        "path, value, where",
        [
            (("split", "seed"), [1], r"split\.seed"),
            (("dataset", "text_field"), ["text"], r"dataset\.text_field"),
            (("dataset", "label_field"), ["category"], r"dataset\.label_field"),
            (("features", "l2_normalize"), "false", r"features\.l2_normalize"),
            (("split", "test_size"), True, r"split\.test_size"),
            (("features", "min_df"), True, r"features\.min_df"),
            (("dataset", "schema", "labels"), "spam", r"dataset\.schema\.labels"),
            (("dataset", "schema", "labels"), [1, 2], r"dataset\.schema\.labels"),
            (("dataset", "path"), ["a"], r"dataset\.path"),
            (("predictors", 2, "provider", "endpoint"), 5,
             r"predictors\[2\]\.provider\.endpoint"),
            (("predictors", 2, "provider", "endpoint"), "ftp://x",
             r"predictors\[2\]\.provider: endpoint"),
            (("cleaning", "remove_urls"), "false", r"cleaning\.remove_urls"),
            (("llm_cleaning", "apply_stemming"), 1, r"llm_cleaning\.apply_stemming"),
            (("dataset", "schema", "task_name"), 5, r"dataset\.schema\.task_name"),
            (("predictors", 1, "task", "subject"), 5, r"predictors\[1\]\.task\.subject"),
            (("predictors", 1, "task", "venue"), None, r"predictors\[1\]\.task\.venue"),
            (("predictors", 1, "batch_size"), 2.5, r"predictors\[1\]\.batch_size"),
            (("predictors", 1, "repeat_count"), True, r"predictors\[1\]\.repeat_count"),
            (("repeat_count",), True, r"repeat_count"),
            (("predictors", 1, "request_seed"), "x", r"predictors\[1\]\.request_seed"),
            (("predictors", 1, "temperature"), "0.5", r"predictors\[1\]\.temperature"),
            (("predictors", 1, "provider", "noise"), "no", r"predictors\[1\]\.provider\.noise"),
            (("predictors", 2, "provider", "api_key_env"), 5,
             r"predictors\[2\]\.provider\.api_key_env"),
            (("predictors", 1, "provider", "rules", "Books"), "xyz",
             r"predictors\[1\]\.provider\.rules\['Books'\]"),
        ],
        ids=["list-seed", "list-text-field", "list-label-field", "string-l2-normalize",
             "bool-test-size", "bool-min-df", "string-labels", "int-labels", "list-path",
             "int-endpoint", "ftp-endpoint", "string-cleaning-flag", "int-llm-cleaning-flag",
             "int-task-name", "int-task-subject", "null-task-venue", "float-batch-size",
             "bool-repeat-count", "bool-top-level-repeat-count", "string-request-seed",
             "string-temperature", "string-noise", "int-api-key-env", "string-rule-keywords"],
    )
    def test_wrongly_typed_field_rejected_with_location(
        self, fixture_corpus_path, tmp_path, path, value, where
    ):
        data = self._every_level(fixture_corpus_path, tmp_path)
        validate_config(json.dumps(data))  # valid before the bad value goes in
        *parents, key = path
        target = data
        for part in parents:
            target = target[part]
        target[key] = value
        with pytest.raises(ConfigError, match=rf"^{where}: expected .*, got {re.escape(repr(value))}$"):
            validate_config(json.dumps(data))

    def test_api_key_in_provider_not_echoed(self, fixture_corpus_path, tmp_path):
        predictor = http_llm_predictor(api_key="sk-not-a-real-key")
        raw = minimal_config(fixture_corpus_path, tmp_path, predictors=[predictor])
        with pytest.raises(ConfigError, match=r"^predictors\[0\]\.provider: .*'api_key'") as info:
            validate_config(raw)
        assert "sk-not-a-real-key" not in str(info.value)

    def test_validation_sends_no_request(self, fixture_corpus_path, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("validation sent a request")

        monkeypatch.setattr(http.client.HTTPConnection, "request", refuse)
        config = validate_config(json.dumps(self._every_level(fixture_corpus_path, tmp_path)))
        assert config.predictors[2].provider["api_key_env"] == "EXAMPLE_API_KEY"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("batch_size", "25"),
            ("batch_size", 0),
            ("max_retries", -1),
            ("timeout_s", 0),
            ("timeout_s", -1.5),
            ("backoff_base_s", -0.5),
            ("temperature", -0.1),
            ("top_p", 1.5),
            ("repeat_count", 0),
            ("concurrency", 0),
        ],
    )
    def test_llm_run_field_out_of_range(self, fixture_corpus_path, tmp_path, field, value):
        bound = {"max_retries": ">= 0", "backoff_base_s": ">= 0", "temperature": ">= 0",
                 "top_p": "in (0, 1]"}.get(field, "positive")
        predictor = mock_llm_predictor(**{field: value})
        raw = minimal_config(fixture_corpus_path, tmp_path, predictors=[predictor])
        message = re.escape(f"predictors[0]: {field} must be {bound}, got {value!r}")
        if type(value) is str:  # a value of the wrong JSON type is refused before its range
            message = re.escape(f"predictors[0].{field}: expected an integer, got {value!r}")
        with pytest.raises(ConfigError, match=f"^{message}$"):
            validate_config(raw)

    @pytest.mark.parametrize("field, value", [("max_retries", 0), ("backoff_base_s", 0)])
    def test_llm_run_field_lower_bound_accepted(self, fixture_corpus_path, tmp_path, field, value):
        predictor = mock_llm_predictor(**{field: value})
        config = validate_config(minimal_config(fixture_corpus_path, tmp_path, predictors=[predictor]))
        assert getattr(config.predictors[0].run, field) == value

    def test_top_level_repeat_count_is_the_llm_default(self, fixture_corpus_path, tmp_path):
        raw = minimal_config(
            fixture_corpus_path,
            tmp_path,
            predictors=[mock_llm_predictor("a"), mock_llm_predictor("b", repeat_count=2)],
            repeat_count=3,
        )
        a, b = validate_config(raw).predictors
        assert (a.run.repeat_count, b.run.repeat_count) == (3, 2)

    def test_cli_validate_reports_bad_batch_size(self, fixture_corpus_path, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        predictor = mock_llm_predictor(batch_size="25")
        config_path.write_text(
            minimal_config(fixture_corpus_path, tmp_path, predictors=[predictor]), "utf-8"
        )
        assert cli.main(["validate", str(config_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: predictors[0].batch_size: expected an integer, got '25'\n"

    def test_cli_validate_reports_non_string_llm_name(self, fixture_corpus_path, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        predictors = [{"name": "mnb"}, mock_llm_predictor(name=["a"])]
        config_path.write_text(minimal_config(fixture_corpus_path, tmp_path, predictors), "utf-8")
        assert cli.main(["validate", str(config_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: predictors[1].name: expected a string, got ['a']"
        ]

    def test_non_string_output_dir_rejected(self, fixture_corpus_path, tmp_path):
        config = json.loads(minimal_config(fixture_corpus_path, tmp_path))
        raw = json.dumps({**config, "output_dir": 5})
        with pytest.raises(ConfigError, match=r"^output_dir: expected a string, got 5$"):
            validate_config(raw)


class TestRunExperiment:
    def test_shared_split_across_predictors(self, fixture_corpus_path, tmp_path):
        raw = minimal_config(
            fixture_corpus_path,
            tmp_path,
            predictors=[
                {"name": "mnb"},
                {"name": "logreg", "epochs": 20},
                mock_llm_predictor(repeat_count=1),
            ],
        )
        config = validate_config(raw)
        result = run_experiment(config, run_id="shared-split")
        assert set(result.predictors) == {"mnb", "logreg", "mock-llm"}
        consumed = {
            name: sorted(res.diagnostics["evaluated_doc_ids"])
            for name, res in result.predictors.items()
        }
        assert consumed["mnb"] == consumed["logreg"] == consumed["mock-llm"]
        assert consumed["mnb"] == result.test_ids
        assert len(result.test_ids) == 150

    def test_ablation_pair_aggregates(self, fixture_corpus_path, tmp_path):
        raw = minimal_config(
            fixture_corpus_path,
            tmp_path,
            predictors=[mock_llm_predictor(text_variant="both", repeat_count=5)],
        )
        result = run_experiment(validate_config(raw), run_id="ablation")
        assert set(result.predictors) == {"mock-llm-original", "mock-llm-clean"}
        for res in result.predictors.values():
            assert len(res.runs) == 5
            agg = res.aggregates["acc"]
            assert len(agg.values) == 5
            assert agg.std == 0.0  # deterministic mock
            assert "±0.0000" in agg.format()

    def test_crash_isolation(self, fixture_corpus_path, tmp_path):
        raw = minimal_config(
            fixture_corpus_path,
            tmp_path,
            # k far beyond the training size fails at training time
            predictors=[{"name": "knn", "k": 1001}, {"name": "mnb"}],
        )
        result = run_experiment(validate_config(raw), run_id="crash")
        assert result.predictors["knn"].status == "error"
        assert "exceeds" in result.predictors["knn"].error
        assert result.predictors["mnb"].status == "ok"
        assert result.predictors["mnb"].report.acc > 0

    @staticmethod
    def _count_calls(monkeypatch, name: str) -> list:
        calls = []
        original = getattr(orchestrator, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(orchestrator, name, counted)
        return calls

    def test_one_feature_pass_for_all_baselines(self, fixture_corpus_path, tmp_path, monkeypatch):
        preprocessed = self._count_calls(monkeypatch, "preprocess_corpus")
        fits = self._count_calls(monkeypatch, "fit_vectorizer")
        raw = minimal_config(
            fixture_corpus_path,
            tmp_path,
            predictors=[{"name": "mnb"}, {"name": "knn"}, {"name": "dt", "max_depth": 4}],
        )
        result = run_experiment(validate_config(raw), run_id="one-pass")
        assert all(res.status == "ok" for res in result.predictors.values())
        assert len(preprocessed) == 1  # train and test texts in one call
        assert len(preprocessed[0][0]) == len(result.train_ids) + len(result.test_ids)
        assert len(fits) == 1

    def test_each_distinct_token_stemmed_once(self, fixture_corpus_path, tmp_path, monkeypatch):
        stemmed = []
        original = preprocess.stem

        def counted(word):
            stemmed.append(word)
            return original(word)

        monkeypatch.setattr(preprocess, "stem", counted)
        raw = minimal_config(
            fixture_corpus_path, tmp_path, predictors=[{"name": "mnb"}, {"name": "knn"}]
        )
        config = validate_config(raw)
        result = run_experiment(config, run_id="stem-once")
        assert all(res.status == "ok" for res in result.predictors.values())
        ds = config.dataset
        corpus = load_corpus(ds.path, ds.format, ds.text_field, ds.label_field, ds.schema)
        distinct = {
            token
            for text in corpus.texts
            for token in preprocess.clean_text(text, config.cleaning).split()
            if token not in preprocess.STOPWORDS
        }
        assert len(stemmed) == len(distinct)
        assert set(stemmed) == distinct

    def test_empty_documents_counted_per_split(self, fixture_corpus_path, tmp_path):
        corpus_path = tmp_path / "corpus.csv"
        lines = fixture_corpus_path.read_text("utf-8").splitlines()
        n_fixture = len(lines) - 1  # header
        url_only = [f"https://t.co/x{i},Books" for i in range(20)]
        corpus_path.write_text("\n".join(lines + url_only) + "\n", "utf-8")
        raw = minimal_config(corpus_path, tmp_path)
        result = run_experiment(validate_config(raw), run_id="empties")
        url_ids = set(range(n_fixture, n_fixture + len(url_only)))
        n_test = len(url_ids & set(result.test_ids))
        assert result.predictors["mnb"].diagnostics["empty_after_cleaning"] == {
            "train": len(url_only) - n_test,
            "test": n_test,
        }

    def test_document_cleaned_to_nothing_scored_invalid(
        self, fixture_corpus_path, tmp_path, monkeypatch
    ):
        corpus_path = tmp_path / "corpus.csv"
        lines = fixture_corpus_path.read_text("utf-8").splitlines()
        n_fixture = len(lines) - 1  # header
        url_only = [f"https://t.co/x{i},Books" for i in range(20)]
        corpus_path.write_text("\n".join(lines + url_only) + "\n", "utf-8")
        outcomes, prompted = [], set()
        classify, build_prompt = orchestrator.classify_corpus, gateway_classify.build_prompt

        def record_outcome(*args, **kwargs):
            outcomes.append(classify(*args, **kwargs))
            return outcomes[-1]

        def record_prompt(schema, task, batch):
            prompted.update(index for index, _ in batch)
            return build_prompt(schema, task, batch)

        monkeypatch.setattr(orchestrator, "classify_corpus", record_outcome)
        monkeypatch.setattr(gateway_classify, "build_prompt", record_prompt)
        raw = minimal_config(
            corpus_path, tmp_path, predictors=[mock_llm_predictor(text_variant="clean")]
        )
        result = run_experiment(validate_config(raw), run_id="cleaned-empty")
        assert result.predictors["mock-llm"].status == "ok"
        url_ids = set(range(n_fixture, n_fixture + len(url_only))) & set(result.test_ids)
        assert url_ids and len(outcomes) == 5
        for outcome in outcomes:
            assert url_ids <= set(outcome.invalid_ids)
        assert prompted and not prompted & url_ids

    def test_unresolved_answer_scored_as_first_label_not_gold(self, tmp_path):
        # two documents of every class are cleaned to nothing, so they are never
        # prompted and stay unresolved; the rest hit their own class's keyword
        labels = ["alpha", "beta", "gamma"]
        rows = ["text,category"]
        for label in labels:
            rows += [f"a note about {label}fruit number {i},{label}" for i in range(4)]
            rows += [f"https://t.co/{label}{i},{label}" for i in range(2)]
        corpus_path = tmp_path / "corpus.csv"
        corpus_path.write_text("\n".join(rows) + "\n", "utf-8")
        predictor = mock_llm_predictor(
            text_variant="clean",
            repeat_count=1,
            provider={"type": "mock", "rules": {lab: [f"{lab}fruit"] for lab in labels}},
        )
        raw = fixture_experiment_config(
            corpus_path, tmp_path / "runs", [predictor],
            dataset={"path": str(corpus_path), "format": "csv", "text_field": "text",
                     "label_field": "category", "schema": {"task_name": "t", "labels": labels}},
            split={"test_size": 18, "seed": 0},
        )
        result = run_experiment(validate_config(raw), run_id="unresolved")
        [report] = result.predictors["mock-llm"].runs
        # a gold-alpha document lands in column 1 (beta), any other in column 0
        assert report.confusion.counts == ((4, 2, 0), (2, 4, 0), (2, 0, 4))
        assert report.n_invalid_predictions == 6

    def test_tracer_reads_every_repeat_of_a_pooled_entry(
        self, fixture_corpus_path, tmp_path, monkeypatch
    ):
        answer = KeywordRuleProvider.complete

        def forgetful(self, body):
            """Leaves out the last document of a prompt when its id is odd,
            so some batches need a re-ask and some documents stay invalid."""
            text, meta = answer(self, body)
            labels = json.loads(text)
            if int(max(labels, key=int)) % 2:
                del labels[max(labels, key=int)]
            return json.dumps(labels), meta

        monkeypatch.setattr(KeywordRuleProvider, "complete", forgetful)
        raw = minimal_config(
            fixture_corpus_path, tmp_path, predictors=[mock_llm_predictor(repeat_count=3)]
        )
        config = validate_config(raw)
        tracer = load_tracing().Tracer()
        with tracer:
            start = time.perf_counter()
            result = run_experiment(config, run_id="traced")
            run_s = time.perf_counter() - start
        main = threading.get_ident()
        summary = tracer.summary(run_s, main)

        spans = [span for span in tracer.spans if span["name"] == "gateway.classify"]
        assert len(spans) == 3
        assert all(span["thread"] == main for span in spans)
        per_run = result.predictors["mock-llm"].diagnostics["per_run"]
        requests = sum(run["n_requests"] for run in per_run)
        reasks = sum(run["n_reasks"] for run in per_run)
        invalid = sum(run["n_invalid"] for run in per_run)
        assert reasks > 0 and invalid > 0
        assert summary["gateway.classify.reask_ratio"] == reasks / (requests - reasks)
        assert summary["gateway.classify.invalid_frac"] == invalid / (3 * len(result.test_ids))
        assert summary["gateway.client.requests"] == requests

    def test_llm_only_roster_builds_no_features(self, fixture_corpus_path, tmp_path, monkeypatch):
        preprocessed = self._count_calls(monkeypatch, "preprocess_corpus")
        fits = self._count_calls(monkeypatch, "fit_vectorizer")
        raw = minimal_config(
            fixture_corpus_path, tmp_path, predictors=[mock_llm_predictor(repeat_count=1)]
        )
        result = run_experiment(validate_config(raw), run_id="llm-only")
        assert result.predictors["mock-llm"].status == "ok"
        assert preprocessed == [] and fits == []

    def test_clean_llm_text_once_per_document(self, fixture_corpus_path, tmp_path, monkeypatch):
        cleaned = self._count_calls(monkeypatch, "clean_for_prompt")
        raw = minimal_config(
            fixture_corpus_path,
            tmp_path,
            predictors=[mock_llm_predictor(text_variant="clean", repeat_count=3)],
        )
        result = run_experiment(validate_config(raw), run_id="clean-once")
        assert len(result.predictors["mock-llm"].runs) == 3
        assert len(cleaned) == len(result.test_ids) == 150

    def test_feature_failure_fails_every_baseline(self, fixture_corpus_path, tmp_path, monkeypatch):
        fits = self._count_calls(monkeypatch, "fit_vectorizer")
        raw = minimal_config(
            fixture_corpus_path,
            tmp_path,
            predictors=[{"name": "mnb"}, {"name": "knn"}, mock_llm_predictor(repeat_count=1)],
            features={"min_df": 100000},
        )
        result = run_experiment(validate_config(raw), run_id="pruned")
        for name in ("mnb", "knn"):
            res = result.predictors[name]
            assert res.status == "error"
            assert res.error == "FeatureError: all terms pruned at min_df=100000"
        assert result.predictors["mock-llm"].status == "ok"
        assert len(fits) <= 1
        for rel in ["report.md", "report.json", "split.json", "config.json", "manifest.json",
                    "reports/mnb.json", "reports/knn.json", "reports/mock-llm.json",
                    "audit/mock-llm.jsonl"]:
            assert (result.run_dir / rel).is_file(), rel
        report = (result.run_dir / "report.md").read_text()
        assert "- mnb: FeatureError: all terms pruned at min_df=100000" in report

    def test_rerun_writes_identical_result_files(self, fixture_corpus_path, tmp_path):
        raw = minimal_config(
            fixture_corpus_path,
            tmp_path,
            predictors=[{"name": "mnb"}, {"name": "dt", "max_depth": 8}, mock_llm_predictor()],
        )
        config = validate_config(raw)
        r1 = run_experiment(config, run_id="first")
        r2 = run_experiment(config, run_id="second")
        for rel in ["report.md", "report.json", "split.json", "config.json",
                    "reports/mnb.json", "reports/dt.json", "reports/mock-llm.json"]:
            a = (r1.run_dir / rel).read_text()
            b = (r2.run_dir / rel).read_text()
            assert a == b, f"{rel} differs between reruns"

    def test_artifacts_written(self, fixture_corpus_path, tmp_path):
        raw = minimal_config(
            fixture_corpus_path, tmp_path, predictors=[mock_llm_predictor(repeat_count=2)]
        )
        result = run_experiment(validate_config(raw), run_id="artifacts")
        assert (result.run_dir / "manifest.json").is_file()
        assert (result.run_dir / "audit" / "mock-llm.jsonl").is_file()
        manifest = json.loads((result.run_dir / "manifest.json").read_text())
        assert manifest["config_hash"] == result.config.config_hash()
        audit_lines = (result.run_dir / "audit" / "mock-llm.jsonl").read_text().splitlines()
        assert len(audit_lines) == 2 * 6  # 2 repeats x ceil(150/25) batches

    def test_default_run_ids_do_not_collide(self, fixture_corpus_path, tmp_path):
        config = validate_config(minimal_config(fixture_corpus_path, tmp_path))
        first = run_experiment(config)
        second = run_experiment(config)
        assert first.run_dir != second.run_dir
        assert first.run_dir.parent == second.run_dir.parent == tmp_path / "runs"
        for result in (first, second):
            assert (result.run_dir / "report.json").is_file()

    def test_reused_run_id_refused_before_loading(self, fixture_corpus_path, tmp_path, monkeypatch):
        first = validate_config(
            minimal_config(fixture_corpus_path, tmp_path, predictors=[{"name": "mnb"}, {"name": "knn"}])
        )
        run_dir = run_experiment(first, run_id="reused").run_dir
        report = (run_dir / "report.json").read_text()

        loads = []
        monkeypatch.setattr(orchestrator, "load_corpus", lambda *a, **k: loads.append(a))
        smaller = validate_config(minimal_config(fixture_corpus_path, tmp_path))
        with pytest.raises(ConfigError, match="already exists"):
            run_experiment(smaller, run_id="reused")
        assert loads == []
        # the earlier run's artifacts are left exactly as they were
        assert (run_dir / "report.json").read_text() == report
        assert (run_dir / "reports" / "knn.json").is_file()

    def test_fair_comparison_violation_fails_only_that_predictor(
        self, fixture_corpus_path, tmp_path, monkeypatch, capsys
    ):
        original = orchestrator._run_baseline

        def drop_one_test_doc(spec, *args):
            res = original(spec, *args)
            if spec.name == "knn":
                res.diagnostics["evaluated_doc_ids"] = res.diagnostics["evaluated_doc_ids"][1:]
            return res

        monkeypatch.setattr(orchestrator, "_run_baseline", drop_one_test_doc)
        config_path = tmp_path / "config.json"
        predictors = [{"name": "mnb"}, {"name": "knn"}, mock_llm_predictor(repeat_count=1)]
        config_path.write_text(minimal_config(fixture_corpus_path, tmp_path, predictors), "utf-8")
        assert cli.main(["run", str(config_path), "--run-id", "unfair"]) == 1
        assert "1 predictor(s) failed" in capsys.readouterr().err

        run_dir = tmp_path / "runs" / "unfair"
        for rel in ["report.md", "report.json", "split.json", "config.json", "manifest.json",
                    "reports/mnb.json", "reports/knn.json", "reports/mock-llm.json"]:
            assert (run_dir / rel).is_file(), rel
        message = (
            "fair-comparison violation: knn evaluated 149 documents, "
            "expected the shared 150-item test set"
        )
        knn = json.loads((run_dir / "reports" / "knn.json").read_text())
        assert knn == {"name": "knn", "category": "baseline", "status": "error", "error": message}
        statuses = {
            name: res["status"]
            for name, res in json.loads((run_dir / "report.json").read_text())["predictors"].items()
        }
        assert statuses == {"mnb": "ok", "knn": "error", "mock-llm": "ok"}
        assert f"- knn: {message}" in (run_dir / "report.md").read_text()

    @staticmethod
    def _files(run_dir) -> list[str]:
        return sorted(path.relative_to(run_dir).as_posix() for path in run_dir.rglob("*"))

    def test_interrupted_baseline_keeps_what_was_written(
        self, fixture_corpus_path, tmp_path, monkeypatch
    ):
        predictors = [{"name": "mnb"}, {"name": "knn"}, mock_llm_predictor(repeat_count=1)]
        config = validate_config(minimal_config(fixture_corpus_path, tmp_path, predictors))
        whole = run_experiment(config, run_id="whole").run_dir
        train = orchestrator.train_baseline

        def interrupt_second(kind, *args, **kwargs):
            if kind == "knn":
                raise KeyboardInterrupt
            return train(kind, *args, **kwargs)

        monkeypatch.setattr(orchestrator, "train_baseline", interrupt_second)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(config, run_id="stopped")

        stopped = tmp_path / "runs" / "stopped"
        for rel in ["config.json", "split.json", "reports/mnb.json"]:
            assert (stopped / rel).read_bytes() == (whole / rel).read_bytes(), rel
        json.loads((stopped / "manifest.json").read_text("utf-8"))
        # no report.* and no *.partial
        assert self._files(stopped) == ["config.json", "manifest.json", "reports",
                                        "reports/mnb.json", "split.json"]

    def test_interrupted_llm_entry_keeps_earlier_reports_and_closes_its_log(
        self, fixture_corpus_path, tmp_path, monkeypatch
    ):
        predictors = [
            {"name": "mnb"},
            mock_llm_predictor("first", repeat_count=1),
            mock_llm_predictor("second", repeat_count=3),
        ]
        config = validate_config(minimal_config(fixture_corpus_path, tmp_path, predictors))
        whole = run_experiment(config, run_id="whole").run_dir
        classify = orchestrator.classify_corpus
        opened, closed = [], []

        def interrupt_repeat_1(pool, repeat):
            if repeat == 1:
                raise KeyboardInterrupt
            return classify(pool, repeat)

        class RecordedLog(orchestrator.AuditLog):
            def __init__(self, path):
                super().__init__(path)
                opened.append(self.path.name)

            def close(self):
                super().close()
                closed.append(self.path.name)

        monkeypatch.setattr(orchestrator, "classify_corpus", interrupt_repeat_1)
        monkeypatch.setattr(orchestrator, "AuditLog", RecordedLog)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(config, run_id="stopped")

        stopped = tmp_path / "runs" / "stopped"
        for rel in ["config.json", "split.json", "reports/mnb.json", "reports/first.json"]:
            assert (stopped / rel).read_bytes() == (whole / rel).read_bytes(), rel
        assert opened == closed == ["first.jsonl", "second.jsonl"]
        files = self._files(stopped)
        assert not [f for f in files if f.startswith("report.") or f.endswith(".partial")]
        assert "reports/second.json" not in files
        # the log holds whole records of the requests sent before the interrupt
        lines = (stopped / "audit" / "second.jsonl").read_text("utf-8").splitlines()
        assert lines and all(json.loads(line)["predictor"] == "second" for line in lines)

    def test_cli_reports_reused_run_id(self, fixture_corpus_path, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(minimal_config(fixture_corpus_path, tmp_path), "utf-8")
        argv = ["run", str(config_path), "--run-id", "cli-run"]
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: run directory ")
        assert "already exists" in err

    def test_cli_interrupted_run_exits_130_without_a_traceback(
        self, fixture_corpus_path, tmp_path, monkeypatch, capsys
    ):
        config_path = tmp_path / "config.json"
        predictors = [{"name": "mnb"}, mock_llm_predictor(repeat_count=3)]
        config_path.write_text(minimal_config(fixture_corpus_path, tmp_path, predictors), "utf-8")
        classify = orchestrator.classify_corpus

        def interrupt_repeat_1(pool, repeat):
            if repeat == 1:
                raise KeyboardInterrupt
            return classify(pool, repeat)

        monkeypatch.setattr(orchestrator, "classify_corpus", interrupt_repeat_1)
        try:
            code = cli.main(["run", str(config_path), "--run-id", "stopped"])
        except KeyboardInterrupt:
            pytest.fail("KeyboardInterrupt escaped cli.main")
        assert code == 130
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert (tmp_path / "runs" / "stopped" / "reports" / "mnb.json").is_file()


class TestEmitReport:
    def test_markdown_sections_and_auc_dash(self, fixture_corpus_path, tmp_path):
        raw = minimal_config(
            fixture_corpus_path,
            tmp_path,
            predictors=[{"name": "mnb"}, mock_llm_predictor(repeat_count=2)],
        )
        result = run_experiment(validate_config(raw), run_id="report")
        md = emit_report(result, "markdown")
        assert "## Traditional ML" in md
        assert "## LLM" in md
        assert "| MNB |" in md
        llm_row = next(line for line in md.splitlines() if "mock-llm" in line)
        assert llm_row.strip().endswith("| - |")
        assert "±" in llm_row

    def test_json_report_full_precision(self, fixture_corpus_path, tmp_path):
        raw = minimal_config(fixture_corpus_path, tmp_path)
        result = run_experiment(validate_config(raw), run_id="json")
        data = json.loads(emit_report(result, "json"))
        assert data["test_size"] == 150
        assert "mnb" in data["predictors"]
        assert data["predictors"]["mnb"]["report"]["acc"] == result.predictors["mnb"].report.acc

    def test_empty_result_rejected(self, fixture_corpus_path, tmp_path):
        raw = minimal_config(fixture_corpus_path, tmp_path)
        result = run_experiment(validate_config(raw), run_id="empty")
        result.predictors.clear()
        with pytest.raises(ValueError, match="empty result"):
            emit_report(result, "markdown")

    def test_unknown_format_rejected(self, fixture_corpus_path, tmp_path):
        raw = minimal_config(fixture_corpus_path, tmp_path)
        result = run_experiment(validate_config(raw), run_id="fmt")
        with pytest.raises(ValueError, match="format"):
            emit_report(result, "yaml")
