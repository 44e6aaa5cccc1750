"""Multinomial softmax regression trained by full-batch gradient descent."""

from __future__ import annotations

import numpy as np
from scipy import sparse

from ..dataset import LabelSchema
from .common import TrainingError, check_training_input, normalize_rows


class DivergenceError(TrainingError):
    def __init__(self, epoch: int):
        super().__init__(f"training diverged: loss became non-finite at epoch {epoch}")


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row softmax computed in place: `logits` is overwritten and returned."""
    # row max column by column: exact in any order, and cheaper than a K-axis reduction
    row_max = logits[..., 0].copy()
    for column in range(1, logits.shape[-1]):
        np.maximum(row_max, logits[..., column], out=row_max)
    logits -= row_max[..., None]
    np.exp(logits, out=logits)
    return np.divide(logits, logits.sum(axis=-1, keepdims=True), out=logits)


def _loss_and_grads(weights, bias, x, xt, y_onehot, l2_lambda):
    """Mean cross-entropy plus (lambda/2)||W||^2, and its analytic gradient
    w.r.t. weights and bias, from one softmax: (loss, grad_w, grad_b).

    `weights` and `grad_w` are (V, K); `xt` is `x.T`, built once per fit.
    A true-class probability underflowing to zero makes the loss infinite,
    which the training loop reports as divergence.
    """
    logits = x @ weights
    probs = softmax(np.add(logits, bias, out=logits))
    with np.errstate(divide="ignore"):
        ce = -np.log(probs[y_onehot.astype(bool)]).mean()
    loss = ce + 0.5 * l2_lambda * float((weights * weights).sum())
    probs -= y_onehot
    delta = np.divide(probs, x.shape[0], out=probs)
    grad_w = xt @ delta
    grad_w += l2_lambda * weights
    return loss, grad_w, delta.sum(axis=0)


class LogRegModel:
    def __init__(self, schema: LabelSchema, weights: np.ndarray, bias: np.ndarray):
        self.schema = schema
        self.weights = weights  # shape (K, V); a view of the (V, K) array training updates
        self.bias = bias

    def predict_proba(self, x: sparse.csr_matrix) -> np.ndarray:
        return normalize_rows(softmax(x @ self.weights.T + self.bias))


def check_hyperparameters(learning_rate: float, l2_lambda: float, epochs: int) -> None:
    if not learning_rate > 0:  # NaN too
        raise TrainingError(f"learning_rate must be positive, got {learning_rate}")
    if not l2_lambda >= 0:  # NaN too
        raise TrainingError(f"l2_lambda must be non-negative, got {l2_lambda}")
    if epochs < 0:
        raise TrainingError(f"epochs must be non-negative, got {epochs}")


def train_logreg(
    x: sparse.csr_matrix,
    labels: list[str],
    schema: LabelSchema,
    learning_rate: float = 0.1,
    l2_lambda: float = 1e-4,
    epochs: int = 200,
    seed: int = 0,
) -> LogRegModel:
    """Full-batch gradient descent on cross-entropy with L2 penalty.

    Weights start at zero, so the result is deterministic; `seed` is
    accepted for config symmetry but unused without minibatching.
    """
    del seed
    check_hyperparameters(learning_rate, l2_lambda, epochs)
    k = len(schema)
    y_onehot = np.eye(k)[check_training_input(x, labels, schema)]
    weights, bias = np.zeros((x.shape[1], k)), np.zeros(k)
    xt = x.T
    for epoch in range(epochs):
        loss, grad_w, grad_b = _loss_and_grads(weights, bias, x, xt, y_onehot, l2_lambda)
        if not np.isfinite(loss):
            raise DivergenceError(epoch)
        weights -= np.multiply(learning_rate, grad_w, out=grad_w)
        bias -= learning_rate * grad_b
    return LogRegModel(schema, weights.T, bias)
