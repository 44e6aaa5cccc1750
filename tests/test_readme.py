"""The README's example config passes `validate_config`, so the docs and the
config reader cannot drift apart unnoticed."""

from __future__ import annotations

import re
from pathlib import Path

from zsbench.orchestrator import validate_config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_config_validates():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text("utf-8"), re.DOTALL)
    assert len(blocks) == 1
    config = validate_config(blocks[0])
    assert [spec.name for spec in config.predictors] == ["mnb", "lg", "rf", "dt", "knn", "gpt-4"]
