"""Dense classifier forward/backward passes and masked SGD.

Everything is float64 numpy with exact analytic gradients: ReLU between dense
layers, softmax cross-entropy on top, batch-mean loss.  No autograd.

Every pass writes its hidden activations, backpropagated deltas and weight
gradients into buffers that its call allocates once, and adds biases, applies
ReLU and updates weights in place, so an SGD step allocates nothing of
activation or weight size.  The buffers belong to the call, never to the
module: a run trains its nodes one after another on one thread, but a
library caller may train models on several threads at once.
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


def _hidden_buffers(weights: list[np.ndarray], rows: int) -> list[np.ndarray]:
    """One ``(rows, width)`` buffer per hidden layer; a pass over n rows uses
    its leading n rows, a contiguous view."""
    return [np.empty((rows, w.shape[0])) for w in weights[:-1]]


def _step_buffers(weights: list[np.ndarray], rows: int):
    """Each hidden layer's activations and backpropagated deltas for up to
    ``rows`` rows, and each layer's weight gradient."""
    return (_hidden_buffers(weights, rows), _hidden_buffers(weights, rows),
            [np.empty(w.shape) for w in weights])


def _affine_chain(
    weights: list[np.ndarray], biases: list[np.ndarray], x: np.ndarray, acts: list[np.ndarray]
):
    """Forward pass: the input of every dense layer, and the logits.  The
    hidden activations are written into the leading rows of ``acts``."""
    inputs = [x]
    for w, b, buf in zip(weights[:-1], biases[:-1], acts):
        h = np.matmul(inputs[-1], w.T, out=buf[: len(x)])
        h += b
        np.maximum(h, 0.0, out=h)
        inputs.append(h)
    logits = inputs[-1] @ weights[-1].T
    logits += biases[-1]
    return inputs, logits


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def _mean_nll(log_probs: np.ndarray, y: np.ndarray) -> float:
    return -float(log_probs[np.arange(len(y)), y].mean())


def _gradients(
    weights: list[np.ndarray],
    biases: list[np.ndarray],
    x: np.ndarray,
    y: np.ndarray,
    bufs: tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]],
) -> tuple[list[np.ndarray], list[np.ndarray], float]:
    """Gradients of the batch-mean loss, and the loss, from one forward pass
    into ``_step_buffers``; the weight gradients are its last list."""
    acts, deltas, g_w = bufs
    inputs, logits = _affine_chain(weights, biases, x, acts)
    log_probs = _log_softmax(logits)
    loss = _mean_nll(log_probs, y)
    n = len(y)

    delta = np.exp(log_probs)
    delta[np.arange(n), y] -= 1.0
    delta /= n

    g_b = [np.empty(0)] * len(biases)
    for i in range(len(weights) - 1, -1, -1):
        np.matmul(delta.T, inputs[i], out=g_w[i])
        g_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = np.matmul(delta, weights[i], out=deltas[i - 1][:n])
            # ReLU derivative: the cached activation is positive iff the unit fired
            delta *= inputs[i] > 0
    return g_w, g_b, loss


def forward(model: ModelParams, batch: Batch) -> tuple[np.ndarray, float]:
    """Logits and mean softmax cross-entropy loss for one batch."""
    _check_input(model, batch)
    _, logits = _affine_chain(model.weights, model.biases, batch.x,
                              _hidden_buffers(model.weights, len(batch.x)))
    return logits, _mean_nll(_log_softmax(logits), batch.y)


def backward(model: ModelParams, batch: Batch) -> ModelParams:
    """Exact gradient of the batch-mean loss, same layout as the model."""
    _check_input(model, batch)
    bufs = _step_buffers(model.weights, len(batch.x))
    g_w, g_b, _ = _gradients(model.weights, model.biases, batch.x, batch.y, bufs)
    return ModelParams(model.arch, g_w, g_b)


def predict(model: ModelParams, x: np.ndarray) -> np.ndarray:
    _, logits = _affine_chain(model.weights, model.biases, x,
                              _hidden_buffers(model.weights, len(x)))
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

    The model's pruned groups are zeroed first, and each step takes
    w -= lr * g and then re-zeroes the output layer's pruned rows, so the loss
    being optimized is the masked one throughout.
    """
    if lr < 0 or epochs < 0 or batch_size <= 0:
        raise ConfigError(
            f"need lr >= 0, epochs >= 0 and batch_size > 0, got {lr}, {epochs}, {batch_size}"
        )
    full = Batch(x, y)
    _check_input(model, full)
    # the model can hold nonzero pruned groups, as after a GLOBAL_MASK broadcast
    zero_pruned(model, mask)
    if epochs == 0:
        # no steps taken: report the current loss rather than a bogus NaN
        return forward(model, full)[1]
    weights, biases = model.weights, model.biases
    last_loss = float("nan")
    n = x.shape[0]
    bufs = _step_buffers(weights, min(batch_size, n))
    # A pruned hidden unit has a zero row and bias, so it never fires and its
    # row and bias get a zero gradient: only the output layer's pruned rows,
    # whose softmax delta is never zero, need re-zeroing after a step.  The
    # bits as float64 multiply to the same bits as the bool mask.
    keep = mask.layers[-1].astype(np.float64)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            g_w, g_b, last_loss = _gradients(weights, biases, x[idx], y[idx], bufs)
            # g *= lr, then w -= g: the bits of w -= lr * g, without a temporary
            for w, b, gw, gb in zip(weights, biases, g_w, g_b):
                gw *= lr
                w -= gw
                gb *= lr
                b -= gb
            weights[-1] *= keep[:, None]
            biases[-1] *= keep
    return last_loss
