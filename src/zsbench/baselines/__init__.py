"""From-scratch traditional classifiers sharing one interface.

Every trainer takes a CSR feature matrix (one row per training document),
the training labels, the schema and its hyperparameters. Every model
exposes predict_proba(x) -> ndarray of shape (n, K): one probability
distribution over the schema labels per row of x. DT and RF share one CART
implementation in `tree`: the decision tree is the one-tree forest, so both
return a ForestModel.

This module is only a registry. A trainer's module, and scipy with it, is
imported when a config first names that baseline, so a run without
baselines never loads them.
"""

from __future__ import annotations

import importlib
import inspect

from ..dataset import LabelSchema

# baseline -> (module of this package, trainer in it)
_TRAINERS = {
    "mnb": ("mnb", "train_mnb"),
    "logreg": ("logreg", "train_logreg"),
    "knn": ("knn", "train_knn"),
    "dt": ("tree", "train_dt"),
    "rf": ("tree", "train_rf"),
}

# common shorthand accepted in configs
BASELINE_ALIASES = {"lg": "logreg", "lr": "logreg"}

DISPLAY_NAMES = {"mnb": "MNB", "logreg": "LG", "knn": "KNN", "dt": "DT", "rf": "RF"}


def canonical_baseline_name(name: str) -> str | None:
    key = name.strip().lower()
    key = BASELINE_ALIASES.get(key, key)
    return key if key in _TRAINERS else None


def _module(kind: str):
    return importlib.import_module(f"{__name__}.{_TRAINERS[kind][0]}")


def trainer(kind: str):
    """The baseline's trainer: its keyword parameters after (x, labels,
    schema) are the hyperparameters, with their types and defaults."""
    return getattr(_module(kind), _TRAINERS[kind][1])


def check_hyperparameters(kind: str, hyper: dict) -> None:
    """Run the range checks that need no training data, which the trainer
    also runs first, on `hyper` and the defaults of what it leaves out.

    Raises the trainer's TrainingError, a ValueError.
    """
    check = _module(kind).check_hyperparameters
    params = inspect.signature(trainer(kind)).parameters
    check(**{
        name: hyper.get(name, params[name].default)
        for name in inspect.signature(check).parameters if name in params
    })


def train_baseline(name: str, x, labels: list[str], schema: LabelSchema, **hyper):
    """Train the named baseline on CSR matrix `x` with its hyperparameters."""
    key = canonical_baseline_name(name)
    if key is None:
        from .common import TrainingError

        raise TrainingError(f"unknown baseline {name!r}")
    return trainer(key)(x, labels, schema, **hyper)
