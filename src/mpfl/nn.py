"""Dense classifier forward/backward passes and masked SGD.

Everything is float64 numpy with exact analytic gradients: ReLU between dense
layers, softmax cross-entropy on top, batch-mean loss.  No autograd.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .model import ArchSpec, Batch, Gradients, ModelParams, PruneMask
from .pruning import apply_mask


def _check_input(model: ModelParams, batch: Batch) -> None:
    if batch.x.shape[1] != model.arch.in_dim:
        raise ConfigError(
            f"batch has {batch.x.shape[1]} features, model expects {model.arch.in_dim}"
        )
    if np.any(batch.y < 0) or np.any(batch.y >= model.arch.num_classes):
        raise ConfigError("labels outside [0, num_classes)")


def _affine_chain(model: ModelParams, x: np.ndarray):
    """Forward pass keeping the post-activation inputs of every dense layer."""
    inputs = [x]
    h = x
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ w.T + b
        h = np.maximum(z, 0.0) if i < last else z
        if i < last:
            inputs.append(h)
    return inputs, h  # h is the logits


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def forward(model: ModelParams, batch: Batch) -> tuple[np.ndarray, float]:
    """Logits and mean softmax cross-entropy loss for one batch."""
    _check_input(model, batch)
    _, logits = _affine_chain(model, batch.x)
    ls = _log_softmax(logits)
    loss = -float(ls[np.arange(len(batch)), batch.y].mean())
    return logits, loss


def backward(model: ModelParams, batch: Batch) -> Gradients:
    """Exact gradient of the batch-mean loss, same layout as the model."""
    _check_input(model, batch)
    inputs, logits = _affine_chain(model, batch.x)
    n = len(batch)

    probs = np.exp(_log_softmax(logits))
    delta = probs
    delta[np.arange(n), batch.y] -= 1.0
    delta /= n

    g_w = [np.empty(0)] * len(model.weights)
    g_b = [np.empty(0)] * len(model.biases)
    for i in range(len(model.weights) - 1, -1, -1):
        g_w[i] = delta.T @ inputs[i]
        g_b[i] = delta.sum(axis=0)
        if i > 0:
            # ReLU derivative: the cached activation is positive iff the unit fired
            delta = (delta @ model.weights[i]) * (inputs[i] > 0)
    return Gradients(model.arch, g_w, g_b)


def sgd_step(
    model: ModelParams,
    grads: Gradients,
    lr: float,
    mask: PruneMask | None = None,
) -> ModelParams:
    """One step of w' = (w - lr * g), projected onto the mask if given."""
    if lr < 0:
        raise ConfigError(f"learning rate must be non-negative, got {lr}")
    weights = [w - lr * g for w, g in zip(model.weights, grads.weights)]
    biases = [b - lr * g for b, g in zip(model.biases, grads.biases)]
    stepped = ModelParams(model.arch, weights, biases)
    return stepped if mask is None else apply_mask(stepped, mask)


def predict(model: ModelParams, x: np.ndarray) -> np.ndarray:
    _, logits = _affine_chain(model, x)
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
    mask: PruneMask | None = None,
) -> tuple[ModelParams, float]:
    """Plain minibatch SGD; returns the trained model and the last batch loss.

    With a mask the pruned groups stay exactly zero after every step, so the
    loss being optimized is the masked one throughout.
    """
    if epochs < 0 or batch_size <= 0:
        raise ConfigError("epochs must be >= 0 and batch_size positive")
    if mask is not None:
        model = apply_mask(model, mask)
    if epochs == 0:
        # no steps taken: report the current loss rather than a bogus NaN
        _, loss = forward(model, Batch(x, y))
        return model, loss
    last_loss = float("nan")
    n = x.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            batch = Batch(x[idx], y[idx])
            _, last_loss = forward(model, batch)
            grads = backward(model, batch)
            model = sgd_step(model, grads, lr, mask)
    return model, last_loss
