from __future__ import annotations

import json

import pytest

from conftest import fixture_experiment_config, mock_llm_predictor
from zsbench import cli, orchestrator
from zsbench.orchestrator import (
    ConfigError,
    emit_report,
    run_experiment,
    validate_config,
)


def minimal_config(fixture_corpus_path, tmp_path, predictors=None, **overrides) -> str:
    predictors = predictors if predictors is not None else [{"name": "mnb"}]
    return fixture_experiment_config(fixture_corpus_path, tmp_path / "runs", predictors, **overrides)


class TestValidateConfig:
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

    def test_round_trip_is_lossless(self, fixture_corpus_path, tmp_path):
        raw = minimal_config(
            fixture_corpus_path,
            tmp_path,
            predictors=[{"name": "rf", "n_trees": 10}, mock_llm_predictor()],
        )
        config = validate_config(raw)
        rebuilt = validate_config(config.canonical_json())
        assert rebuilt.to_json_dict() == config.to_json_dict()
        assert rebuilt.config_hash() == config.config_hash()

    def test_not_json(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            validate_config("still not { json")


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
        assert len(preprocessed) == 2  # train and test, once each
        assert len(fits) == 1

    def test_llm_only_roster_builds_no_features(self, fixture_corpus_path, tmp_path, monkeypatch):
        preprocessed = self._count_calls(monkeypatch, "preprocess_corpus")
        fits = self._count_calls(monkeypatch, "fit_vectorizer")
        raw = minimal_config(
            fixture_corpus_path, tmp_path, predictors=[mock_llm_predictor(repeat_count=1)]
        )
        result = run_experiment(validate_config(raw), run_id="llm-only")
        assert result.predictors["mock-llm"].status == "ok"
        assert preprocessed == [] and fits == []

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
