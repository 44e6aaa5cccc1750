"""The benchmark's tracer patches zsbench functions by name; every name must resolve.

perfbench/tracing.py skips a hook whose target is gone and reports the
metrics resting on it as unmeasured, so a rename in src/ would otherwise
pass silently.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_hook_resolves():
    tracing = load_tracing()
    targets = [(module, attr) for _, module, attr, _ in tracing.SPAN_HOOKS]
    targets += [(module, attr) for _, module, attr in tracing.COUNT_HOOKS]
    assert len(targets) >= 16
    unresolved = [f"{module}:{attr}" for module, attr in targets if tracing._resolve(module, attr) is None]
    assert unresolved == []
