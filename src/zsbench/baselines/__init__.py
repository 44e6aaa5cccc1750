"""From-scratch traditional classifiers sharing one interface.

Every trainer takes a CSR feature matrix (one row per training document),
the training labels, the schema and its hyperparameters. Every model
exposes predict_proba(x) -> ndarray of shape (n, K): one probability
distribution over the schema labels per row of x. DT and RF share one CART
implementation in `tree`: the decision tree is the one-tree forest, so both
return a ForestModel.
"""

from __future__ import annotations

import inspect

from scipy import sparse

from ..dataset import LabelSchema
from .common import TrainingError
from .knn import KnnModel, train_knn
from .logreg import DivergenceError, LogRegModel, train_logreg
from .mnb import MnbModel, train_mnb
from .tree import ForestModel, train_dt, train_rf

TRAINERS = {"mnb": train_mnb, "logreg": train_logreg, "knn": train_knn, "dt": train_dt, "rf": train_rf}

# common shorthand accepted in configs
BASELINE_ALIASES = {"lg": "logreg", "lr": "logreg"}

DISPLAY_NAMES = {"mnb": "MNB", "logreg": "LG", "knn": "KNN", "dt": "DT", "rf": "RF"}


def canonical_baseline_name(name: str) -> str | None:
    key = name.strip().lower()
    key = BASELINE_ALIASES.get(key, key)
    return key if key in TRAINERS else None


def hyperparameter_names(kind: str) -> frozenset[str]:
    """The keyword parameters of a trainer, after (x, labels, schema)."""
    return frozenset(list(inspect.signature(TRAINERS[kind]).parameters)[3:])


def train_baseline(
    name: str,
    x: sparse.csr_matrix,
    labels: list[str],
    schema: LabelSchema,
    **hyper,
):
    """Train the named baseline with its hyperparameters."""
    key = canonical_baseline_name(name)
    if key is None:
        raise TrainingError(f"unknown baseline {name!r}")
    return TRAINERS[key](x, labels, schema, **hyper)


__all__ = [
    "DISPLAY_NAMES",
    "DivergenceError",
    "ForestModel",
    "KnnModel",
    "LogRegModel",
    "MnbModel",
    "TRAINERS",
    "TrainingError",
    "canonical_baseline_name",
    "hyperparameter_names",
    "train_baseline",
    "train_dt",
    "train_knn",
    "train_logreg",
    "train_mnb",
    "train_rf",
]
