"""Importance scoring and per-layer percentile masking.

Scores are p-norms over weight groups (a neuron's weight row plus bias).
Masking works layer by layer: the sparsity increment is a fraction of the
still-live groups of that layer, converted to a prune count by nearest-rank
rounding.  Already-pruned groups are frozen and never come back.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ConfigError, LayoutError
from .model import ArchSpec, ModelParams, PruneMask, ScoreVector

_RANK_EPS = 1e-9  # guards ceil() against float fuzz in fraction * count


def weight_scores(model: ModelParams, p: int = 2) -> ScoreVector:
    """Per-group p-norm of the model weights (row + bias)."""
    if p not in (1, 2):
        raise ConfigError(f"score norm must be p=1 or p=2, got {p}")
    layers = []
    for i in range(len(model.weights)):
        gm = model.group_matrix(i)
        if p == 1:
            layers.append(np.abs(gm).sum(axis=1))
        else:
            layers.append(np.sqrt((gm * gm).sum(axis=1)))
    return ScoreVector(model.arch, layers)


def nearest_rank(n: int, fraction: float) -> int:
    """Nearest-rank index for a percentile cut over ``n`` items (0 means none)."""
    if not 0.0 <= fraction <= 1.0:
        raise ConfigError(f"fraction must be in [0, 1], got {fraction}")
    return min(n, max(0, math.ceil(fraction * n - _RANK_EPS)))


def prune_count(n_live: int, fraction: float, min_keep: int) -> int:
    """How many of ``n_live`` groups an increment removes, honoring the keep floor."""
    if n_live <= min_keep:
        return 0
    return min(nearest_rank(n_live, fraction), n_live - min_keep)


def _min_keep_per_layer(arch: ArchSpec, min_keep: int | Sequence[int]) -> list[int]:
    n_layers = len(arch.groups)
    if isinstance(min_keep, int):
        floors = [min_keep] * n_layers
    else:
        floors = [int(m) for m in min_keep]
        if len(floors) != n_layers:
            raise ConfigError(
                f"min_keep has {len(floors)} entries for {n_layers} layers"
            )
    for i, (m, n) in enumerate(zip(floors, arch.groups)):
        if m < 0 or m > n:
            raise ConfigError(f"min_keep[{i}]={m} outside [0, {n}]")
    return floors


def compute_mask(
    scores: ScoreVector,
    sparsity: float,
    prev_mask: PruneMask,
    min_keep: int | Sequence[int] = 1,
) -> PruneMask:
    """Prune the lowest-scored live groups of each layer by nearest-rank count.

    The increment applies to groups still live in ``prev_mask``; the result is
    always a subset of it.  Score ties at the cut are resolved by pruning the
    lower group index first, so the keep count is deterministic.
    """
    if not 0.0 <= sparsity < 1.0:
        raise ConfigError(f"sparsity increment must be in [0, 1), got {sparsity}")
    arch = scores.arch
    if prev_mask.arch != arch:
        raise LayoutError("prev_mask layout does not match the score layout")
    floors = _min_keep_per_layer(arch, min_keep)

    out = []
    for layer_scores, prev, floor in zip(scores.layers, prev_mask.layers, floors):
        live = np.flatnonzero(prev)
        k = prune_count(live.size, sparsity, floor)
        bits = prev.copy()
        if k > 0:
            # ascending score, ties by ascending index: the first k get pruned
            order = np.lexsort((live, layer_scores[live]))
            bits[live[order[:k]]] = False
        out.append(bits)
    return PruneMask(arch, out)


def zero_pruned(model: ModelParams, mask: PruneMask) -> None:
    """Zero the weight row and bias of every pruned group, in place.

    Only the pruned rows are touched, multiplied by 0.0: the bits of
    multiplying the whole layer by its mask bits, -0.0 and NaN included.
    """
    if mask.arch != model.arch:
        raise LayoutError("mask layout does not match the model")
    for w, b, bits in zip(model.weights, model.biases, mask.layers):
        dead = np.flatnonzero(~bits)
        if dead.size:
            w[dead] *= 0.0
            b[dead] *= 0.0


def apply_mask(model: ModelParams, mask: PruneMask) -> ModelParams:
    """A copy of ``model`` with the weight row and bias of every pruned group zeroed."""
    out = model.copy()
    zero_pruned(out, mask)
    return out
