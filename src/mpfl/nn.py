"""Dense classifier forward/backward passes and masked SGD.

Everything is float64 numpy with exact analytic gradients: ReLU between dense
layers, softmax cross-entropy on top, batch-mean loss.  No autograd.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .model import Batch, ModelParams, PruneMask
from .pruning import zero_pruned


def _check_input(model: ModelParams, batch: Batch) -> None:
    if batch.x.shape[1] != model.arch.in_dim:
        raise ConfigError(
            f"batch has {batch.x.shape[1]} features, model expects {model.arch.in_dim}"
        )
    if np.any(batch.y < 0) or np.any(batch.y >= model.arch.num_classes):
        raise ConfigError("labels outside [0, num_classes)")


def _affine_chain(weights: list[np.ndarray], biases: list[np.ndarray], x: np.ndarray):
    """Forward pass: the input of every dense layer, and the logits."""
    inputs = [x]
    for w, b in zip(weights[:-1], biases[:-1]):
        inputs.append(np.maximum(inputs[-1] @ w.T + b, 0.0))
    return inputs, inputs[-1] @ weights[-1].T + biases[-1]


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def _mean_nll(log_probs: np.ndarray, y: np.ndarray) -> float:
    return -float(log_probs[np.arange(len(y)), y].mean())


def _gradients(
    weights: list[np.ndarray], biases: list[np.ndarray], x: np.ndarray, y: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray], float]:
    """Gradients of the batch-mean loss, and the loss, from one forward pass."""
    inputs, logits = _affine_chain(weights, biases, x)
    log_probs = _log_softmax(logits)
    loss = _mean_nll(log_probs, y)
    n = len(y)

    delta = np.exp(log_probs)
    delta[np.arange(n), y] -= 1.0
    delta /= n

    g_w, g_b = [np.empty(0)] * len(weights), [np.empty(0)] * len(biases)
    for i in range(len(weights) - 1, -1, -1):
        g_w[i] = delta.T @ inputs[i]
        g_b[i] = delta.sum(axis=0)
        if i > 0:
            # ReLU derivative: the cached activation is positive iff the unit fired
            delta = (delta @ weights[i]) * (inputs[i] > 0)
    return g_w, g_b, loss


def forward(model: ModelParams, batch: Batch) -> tuple[np.ndarray, float]:
    """Logits and mean softmax cross-entropy loss for one batch."""
    _check_input(model, batch)
    _, logits = _affine_chain(model.weights, model.biases, batch.x)
    return logits, _mean_nll(_log_softmax(logits), batch.y)


def backward(model: ModelParams, batch: Batch) -> ModelParams:
    """Exact gradient of the batch-mean loss, same layout as the model."""
    _check_input(model, batch)
    g_w, g_b, _ = _gradients(model.weights, model.biases, batch.x, batch.y)
    return ModelParams(model.arch, g_w, g_b)


def predict(model: ModelParams, x: np.ndarray) -> np.ndarray:
    _, logits = _affine_chain(model.weights, model.biases, x)
    return logits.argmax(axis=1)


def accuracy(model: ModelParams, x: np.ndarray, y: np.ndarray) -> float:
    return float((predict(model, x) == y).mean())


def train_sgd(
    model: ModelParams,
    x: np.ndarray,
    y: np.ndarray,
    *,
    lr: float,
    epochs: int,
    batch_size: int,
    rng: np.random.Generator,
    mask: PruneMask,
) -> float:
    """Masked minibatch SGD on ``model``, in place; returns the last batch loss.

    The model's pruned groups are zeroed first and again after every step,
    w -= lr * g, so the loss being optimized is the masked one throughout.
    """
    if lr < 0 or epochs < 0 or batch_size <= 0:
        raise ConfigError(
            f"need lr >= 0, epochs >= 0 and batch_size > 0, got {lr}, {epochs}, {batch_size}"
        )
    full = Batch(x, y)
    _check_input(model, full)
    zero_pruned(model, mask)
    if epochs == 0:
        # no steps taken: report the current loss rather than a bogus NaN
        return forward(model, full)[1]
    weights, biases = model.weights, model.biases
    last_loss = float("nan")
    n = x.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            g_w, g_b, last_loss = _gradients(weights, biases, x[idx], y[idx])
            # g *= lr, then w -= g: the bits of w -= lr * g, without a temporary
            for w, b, gw, gb in zip(weights, biases, g_w, g_b):
                gw *= lr
                w -= gw
                gb *= lr
                b -= gb
            zero_pruned(model, mask)
    return last_loss
