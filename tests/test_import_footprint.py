"""A config loads only the layers its predictors use, and all of them before the run.

Each case starts a fresh interpreter, as `zsbench run` does, on the fixture
corpus. It imports `zsbench.cli`, loads the config and optionally runs it, and
reports `sys.modules` after `load_config` and after `run_experiment`. numpy
and scipy come with the baselines and the stdlib `http.client` with an `http`
provider; whatever a config needs is imported while it is validated, so the
run imports none of it. No config loads `requests` or the libraries it brings.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import DATA_DIR, fixture_experiment_config, mock_llm_predictor

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import json
import sys

import zsbench.cli
from zsbench.orchestrator import load_config, run_experiment

config = load_config(sys.argv[1])
out = {"loaded": sorted(sys.modules)}
if sys.argv[2] == "run":
    result = run_experiment(config, run_id="footprint")
    out["ran"] = sorted(sys.modules)
    out["status"] = {name: res.status for name, res in result.predictors.items()}
print(json.dumps(out))
"""

# requests and its dependencies; numpy.f2py, which scipy.sparse imports,
# loads charset_normalizer on its own, so that one is checked without scipy
REQUESTS_STACK = ("requests", "urllib3", "idna", "charset_normalizer")

TRAINER_MODULES = {
    f"zsbench.baselines.{name}" for name in ("common", "mnb", "logreg", "knn", "tree", "splitter")
}


def footprint(tmp_path: Path, predictors: list[dict], run: bool) -> dict:
    config = tmp_path / "config.json"
    config.write_text(
        fixture_experiment_config(DATA_DIR / "fixture_corpus.csv", tmp_path / "runs", predictors),
        "utf-8",
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(config), "run" if run else "validate"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    if run:
        assert set(out["status"].values()) == {"ok"}, out["status"]
    return out


def under(modules, *packages: str) -> set[str]:
    """The modules that are one of `packages` or inside one."""
    return {m for m in modules if any(m == p or m.startswith(p + ".") for p in packages)}


def test_llm_only_run_loads_no_scipy_requests_or_trainer(tmp_path):
    out = footprint(tmp_path, [mock_llm_predictor(repeat_count=2)], run=True)
    ran = set(out["ran"])
    assert under(ran, "numpy", "scipy", *REQUESTS_STACK) == set()
    assert ran & TRAINER_MODULES == set()
    assert under(ran, "http.client", "ssl") == set()
    assert under(ran, "subprocess") == set()


@pytest.mark.parametrize(
    "roster, trainers",
    [
        (
            [{"name": "mnb"}, {"name": "lg", "epochs": 20}, {"name": "knn", "k": 3},
             {"name": "dt"}, {"name": "rf", "n_trees": 5, "seed": 7}],
            TRAINER_MODULES,
        ),
        (
            [{"name": "mnb"}, {"name": "knn", "k": 3}],
            {"zsbench.baselines.common", "zsbench.baselines.mnb", "zsbench.baselines.knn"},
        ),
    ],
    ids=["all-five", "mnb-knn"],
)
def test_baselines_are_loaded_by_load_config(tmp_path, roster, trainers):
    out = footprint(tmp_path, [*roster, mock_llm_predictor(repeat_count=2)], run=True)
    loaded, ran = set(out["loaded"]), set(out["ran"])
    assert {"scipy", "scipy.sparse"} <= loaded
    assert loaded & TRAINER_MODULES == trainers
    # the run imports nothing of zsbench, scipy or numpy: validation did it all
    assert under(ran - loaded, "zsbench", "scipy", "numpy") == set()
    assert under(ran, *REQUESTS_STACK[:3]) == set()


def test_http_provider_loads_http_client_while_validating(tmp_path):
    entry = {
        "name": "http-llm",
        "type": "llm",
        "model": "some-model",
        "provider": {"type": "http", "endpoint": "http://127.0.0.1:9/v1/chat/completions"},
    }
    loaded = set(footprint(tmp_path, [entry], run=False)["loaded"])
    assert "http.client" in loaded
    assert under(loaded, "numpy", "scipy", *REQUESTS_STACK) == set()
