"""Frozen reports of the fixture corpus: a refactor must reproduce them byte for byte.

The criterion-6 roster runs at default features and at min_df=1 without L2
normalisation. config.json (absolute paths) and manifest.json (timestamp) are
not compared. To refreeze after an intended change in results, run
`PYTHONPATH=src python tests/test_golden.py` from the repository root.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from conftest import fixture_experiment_config, mock_llm_predictor
from zsbench.orchestrator import run_experiment, validate_config

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"

ROSTER = [
    {"name": "mnb"},
    {"name": "logreg", "epochs": 100},
    {"name": "knn", "k": 5},
    {"name": "dt", "max_depth": 16},
    {"name": "rf", "n_trees": 50, "max_depth": 16, "seed": 7},
    mock_llm_predictor(repeat_count=5),
]

FEATURE_CONFIGS = {
    "default": {},
    "min_df1_raw": {"features": {"min_df": 1, "l2_normalize": False}},
}


def _run(name: str, output_dir: Path) -> Path:
    raw = fixture_experiment_config(
        DATA / "fixture_corpus.csv", output_dir, ROSTER, **FEATURE_CONFIGS[name]
    )
    return run_experiment(validate_config(raw), run_id=name).run_dir


def _compared_files(run_dir: Path) -> list[Path]:
    reports = sorted(p.relative_to(run_dir) for p in (run_dir / "reports").glob("*.json"))
    return [Path("report.json"), Path("report.md"), *reports]


@pytest.mark.parametrize("name", sorted(FEATURE_CONFIGS))
def test_reports_match_golden(name, tmp_path):
    run_dir = _run(name, tmp_path / "runs")
    golden_dir = GOLDEN / name
    produced = _compared_files(run_dir)
    assert produced == _compared_files(golden_dir)
    for rel in produced:
        assert (run_dir / rel).read_bytes() == (golden_dir / rel).read_bytes(), str(rel)


if __name__ == "__main__":
    scratch = GOLDEN / ".refreeze"
    for name in FEATURE_CONFIGS:
        run_dir = _run(name, scratch)
        target = GOLDEN / name
        shutil.rmtree(target, ignore_errors=True)
        (target / "reports").mkdir(parents=True)
        for rel in _compared_files(run_dir):
            shutil.copyfile(run_dir / rel, target / rel)
    shutil.rmtree(scratch)
