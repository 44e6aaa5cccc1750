"""Command-line entry points: run, validate, and report."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .dataset import CorpusError
from .gateway import GatewayError
from .metrics import MetricsError
from .orchestrator import ConfigError, emit_report, load_config, run_experiment


def _cmd_validate(args) -> int:
    config = load_config(args.config)
    summary = {
        "task": config.dataset.schema.task_name,
        "dataset": config.dataset.path,
        "test_size": config.test_size,
        "predictors": [p.name for p in config.predictors],
        "config_hash": config.config_hash(),
    }
    print(json.dumps(summary, indent=2))
    return 0


def _cmd_run(args) -> int:
    config = load_config(args.config)
    result = run_experiment(config, run_id=args.run_id)
    print(f"run directory: {result.run_dir}")
    failures = [r for r in result.predictors.values() if r.status != "ok"]
    print(emit_report(result, "markdown"))
    if failures:
        print(f"{len(failures)} predictor(s) failed; see report", file=sys.stderr)
        return 1
    return 0


def _cmd_report(args) -> int:
    run_dir = Path(args.run_dir)
    report_file = run_dir / ("report.json" if args.format == "json" else "report.md")
    if not report_file.is_file():
        print(f"error: {report_file} not found (is {run_dir} a run directory?)", file=sys.stderr)
        return 1
    print(report_file.read_text("utf-8"), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zsbench",
        description="Benchmark zero-shot LLM classification against ML baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a full experiment from a config")
    p_run.add_argument("config", help="path to the experiment config JSON")
    p_run.add_argument("--run-id", default=None, help="run directory name (default: timestamp)")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="validate a config and print a summary")
    p_val.add_argument("config", help="path to the experiment config JSON")
    p_val.set_defaults(func=_cmd_validate)

    p_rep = sub.add_parser("report", help="print the report of a finished run")
    p_rep.add_argument("run_dir", help="run directory created by `zsbench run`")
    p_rep.add_argument("--format", choices=("md", "json"), default="md")
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CorpusError, GatewayError, MetricsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted: the run directory keeps what was written before it", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
