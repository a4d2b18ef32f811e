"""Mask voting, consensus, FedAvg, and the node / parameter-server round logic.

During the pruning phase weights never leave the nodes: each node trains its
own copy, scores its groups, and uploads a one-bit-per-group mask.  The server
averages the masks into a vote histogram and reduces it with one of two
strategies:

* ``topk``   - keep a fixed per-layer budget of the most-voted groups, so the
  sparsity schedule is enforced exactly;
* ``histogram`` - keep groups whose vote fraction clears an agreement level,
  so outlier voters get filtered but the achieved sparsity is data-dependent.

Both choose only among the groups live in the previous global mask, so pruning
never reverts.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .config import ConsensusConfig, PruningConfig, TrainingConfig
from .errors import ConfigError, ConstraintError, LayoutError
from .model import ModelParams, PruneMask, VoteHistogram
from .nn import train_sgd
from .pruning import (
    _min_keep_per_layer,
    compute_mask,
    prune_count,
    weight_scores,
)

log = logging.getLogger(__name__)

TOPK = "topk"
HISTOGRAM = "histogram"


def average_mask(masks: Sequence[PruneMask]) -> VoteHistogram:
    """Mean of the nodes' keep bits: the per-group keep-vote fraction."""
    if not masks:
        raise ConfigError("cannot average zero masks")
    arch = masks[0].arch
    for m in masks[1:]:
        if m.arch != arch:
            raise LayoutError("masks disagree on layer layout")
    layers = [
        np.mean([m.layers[i] for m in masks], axis=0, dtype=np.float64)
        for i in range(len(arch.groups))
    ]
    return VoteHistogram(arch, layers, n_nodes=len(masks))


def keep_budget(
    prev_mask: PruneMask, increment: float, min_keep: int | Sequence[int] = 1
) -> list[int]:
    """Per-layer keep target after one schedule increment on the live groups.

    This is exactly the keep count an honest node's percentile cut produces,
    so unanimous votes saturate the budget.
    """
    floors = _min_keep_per_layer(prev_mask.arch, min_keep)
    budget = []
    for live, floor in zip(prev_mask.keep_counts(), floors):
        budget.append(live - prune_count(live, increment, floor))
    return budget


def _top_voted(votes: Sequence[np.ndarray], keep: Sequence[int], prev_mask: PruneMask) -> PruneMask:
    """The ``keep[m]`` most-voted live groups of each layer ``m``, or all of them
    if fewer are live; vote ties are broken by keeping the lower group index."""
    out = []
    for v, prev, k in zip(votes, prev_mask.layers, keep):
        live = np.flatnonzero(prev)
        bits = np.zeros_like(prev)
        order = np.lexsort((live, -v[live]))
        bits[live[order[:k]]] = True
        out.append(bits)
    return PruneMask(prev_mask.arch, out)


def consensus_topk(
    hist: VoteHistogram,
    budget: Sequence[int],
    prev_mask: PruneMask,
    min_keep: int | Sequence[int] = 1,
) -> PruneMask:
    """Keep the most-voted live groups of each layer, at most ``budget[m]``.

    Vote ties are broken by keeping the lower group index.
    """
    arch = hist.arch
    if prev_mask.arch != arch:
        raise LayoutError("prev_mask layout does not match the histogram")
    if len(budget) != len(arch.groups):
        raise ConfigError(f"budget has {len(budget)} entries for {len(arch.groups)} layers")
    for k, floor in zip(budget, _min_keep_per_layer(arch, min_keep)):
        if k < floor:
            raise ConstraintError(f"keep budget {k} is below the min_keep floor {floor}")
    return _top_voted(hist.layers, budget, prev_mask)


def consensus_histogram(
    hist: VoteHistogram,
    agreement: float,
    prev_mask: PruneMask,
    min_keep: int | Sequence[int] = 1,
) -> PruneMask:
    """Keep live groups whose keep-vote fraction is at least ``agreement``.

    Vote fractions are compared as integer counts (votes >= ceil(agreement*N))
    so the boundary case is exact.  If a layer would fall below its keep
    floor, the most-voted pruned groups are restored.
    """
    if not 0.0 < agreement <= 1.0:
        raise ConfigError(f"agreement must be in (0, 1], got {agreement}")
    arch = hist.arch
    if prev_mask.arch != arch:
        raise LayoutError("prev_mask layout does not match the histogram")
    needed = max(1, int(np.ceil(agreement * hist.n_nodes - 1e-9)))

    votes = [hist.keep_votes(i) for i in range(len(arch.groups))]
    # the groups that clear the bar outvote the rest, so they are the top ones
    keep = [
        max(min(floor, int(prev.sum())), int((v[prev] >= needed).sum()))
        for v, prev, floor in zip(votes, prev_mask.layers, _min_keep_per_layer(arch, min_keep))
    ]
    return _top_voted(votes, keep, prev_mask)


def fedavg(models: Iterable[ModelParams | Sequence[np.ndarray]]) -> ModelParams | list[np.ndarray]:
    """Unweighted FedAvg: the coordinate mean of the node models, summed one by
    one into zeros and divided once, as ``np.mean`` reduces the stacked models,
    so the bits match it (-0.0 included) without the stacked copy.

    A model is a ``ModelParams`` or a list of arrays in one layout, such as a
    packed weight upload; the mean takes the form of the first.  ``models`` may
    be any iterable, a one-shot stream included: each model is added before the
    next is taken, so a stream may reuse one buffer for all."""
    models = iter(models)
    first = next(models, None)
    if first is None:
        raise ConfigError("cannot average zero models")
    acc = [np.zeros(a.shape) for a in _arrays(first)]
    for count, m in enumerate(itertools.chain([first], models), start=1):
        arrays = _arrays(m)
        if [a.shape for a in arrays] != [a.shape for a in acc]:
            raise LayoutError("models disagree on layout")
        for a, v in zip(acc, arrays):
            a += v
    for a in acc:
        a /= count
    if not isinstance(first, ModelParams):
        return acc
    n = len(first.weights)
    return ModelParams(first.arch, acc[:n], acc[n:])


def _arrays(model: ModelParams | Sequence[np.ndarray]) -> list[np.ndarray]:
    return model.weights + model.biases if isinstance(model, ModelParams) else list(model)


@dataclass
class Node:
    """One training participant: a data shard plus a model it owns.

    The node decodes every weight broadcast into its model's arrays and trains
    them in place.  In a run the model lives in shared memory, so the node's
    steps may run in a forked worker while the run's process decodes and
    encodes the same arrays; its rng advances only where its steps run.  The
    run, not the node, records how it behaved.
    """

    node_id: int
    x: np.ndarray
    y: np.ndarray
    model: ModelParams
    rng: np.random.Generator
    training: TrainingConfig
    pruning: PruningConfig

    def train(self, mask: PruneMask) -> float:
        """Masked local SGD on the shard, in place; returns the last batch loss."""
        t = self.training
        return train_sgd(self.model, self.x, self.y, lr=t.lr, epochs=t.epochs_per_round,
                         batch_size=t.batch_size, rng=self.rng, mask=mask)

    def local_round(self, global_mask: PruneMask, increment: float) -> PruneMask:
        """Train under the current global mask, then vote with a local mask.

        A node whose training diverges (non-finite loss) logs it and votes to
        keep the previous mask unchanged; the run records it from its model.
        """
        loss = self.train(global_mask)
        if not np.isfinite(loss) or not self.model.is_finite():
            log.warning("node %d: non-finite loss, submitting previous mask", self.node_id)
            return global_mask.copy()
        return compute_mask(weight_scores(self.model, self.pruning.p), increment, global_mask,
                            self.pruning.min_keep)


@dataclass
class ParameterServer:
    """Reduces the nodes' mask votes each round into the next global mask."""

    consensus: ConsensusConfig
    min_keep: int | Sequence[int]
    budget_history: list[list[int]] = field(init=False, default_factory=list)

    def __post_init__(self):
        if self.consensus.strategy not in (TOPK, HISTOGRAM):
            raise ConfigError(f"unknown consensus strategy {self.consensus.strategy!r}")

    def reduce(self, masks: Sequence[PruneMask], prev: PruneMask, increment: float) -> PruneMask:
        """One consensus round on top of the global mask ``prev``; the result
        keeps a subset of its groups."""
        hist = average_mask(masks)
        if self.consensus.strategy == TOPK:
            budget = keep_budget(prev, increment, self.min_keep)
            new = consensus_topk(hist, budget, prev, self.min_keep)
        else:
            # the histogram strategy has no schedule budget: monotonicity is
            # the binding constraint, so the budget is the live count
            budget = prev.keep_counts()
            new = consensus_histogram(hist, self.consensus.agreement, prev, self.min_keep)
        self.budget_history.append(budget)
        return new
