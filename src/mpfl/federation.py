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

import logging
from dataclasses import dataclass, field
from typing import Sequence

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
    floors = _min_keep_per_layer(arch, min_keep)

    out = []
    for votes, prev, k, floor in zip(hist.layers, prev_mask.layers, budget, floors):
        if k < floor:
            raise ConstraintError(f"keep budget {k} is below the min_keep floor {floor}")
        live = np.flatnonzero(prev)
        bits = np.zeros_like(prev)
        if live.size:
            # descending vote, ties by ascending index
            order = np.lexsort((live, -votes[live]))
            bits[live[order[: min(k, live.size)]]] = True
        out.append(bits)
    return PruneMask(arch, out)


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
    floors = _min_keep_per_layer(arch, min_keep)
    needed = max(1, int(np.ceil(agreement * hist.n_nodes - 1e-9)))

    out = []
    for i, (prev, floor) in enumerate(zip(prev_mask.layers, floors)):
        votes = hist.keep_votes(i)
        bits = prev & (votes >= needed)
        short = min(floor, int(prev.sum())) - int(bits.sum())
        if short > 0:
            cand = np.flatnonzero(prev & ~bits)
            order = np.lexsort((cand, -votes[cand]))
            bits = bits.copy()
            bits[cand[order[:short]]] = True
        out.append(bits)
    return PruneMask(arch, out)


def fedavg(models: Sequence[ModelParams]) -> ModelParams:
    """Unweighted FedAvg: the coordinate mean of the node models, summed one by
    one into zeros and divided once, as ``np.mean`` reduces the stacked models,
    so the bits match it (-0.0 included) without the stacked copy."""
    if not models:
        raise ConfigError("cannot average zero models")
    arch = models[0].arch
    for m in models[1:]:
        if m.arch != arch:
            raise LayoutError("models disagree on layout")
    avg = ModelParams(arch, [np.zeros(s) for s in arch.shapes], [np.zeros(n) for n in arch.groups])
    acc = avg.weights + avg.biases
    for m in models:
        for a, v in zip(acc, m.weights + m.biases):
            a += v
    for a in acc:
        a /= len(models)
    return avg


@dataclass
class Node:
    """One training participant: a data shard plus a model it owns.

    The node decodes every weight broadcast into its model's arrays and trains
    them in place.
    """

    node_id: int
    x: np.ndarray
    y: np.ndarray
    model: ModelParams
    rng: np.random.Generator
    training: TrainingConfig
    pruning: PruningConfig
    flagged: bool = False

    def train(self, mask: PruneMask) -> float:
        """Masked local SGD on the shard, in place; returns the last batch loss."""
        t = self.training
        return train_sgd(self.model, self.x, self.y, lr=t.lr, epochs=t.epochs_per_round,
                         batch_size=t.batch_size, rng=self.rng, mask=mask)

    def local_round(self, global_mask: PruneMask, increment: float) -> PruneMask:
        """Train under the current global mask, then vote with a local mask.

        A node whose training diverges (non-finite loss) is flagged and votes
        to keep the previous mask unchanged.
        """
        loss = self.train(global_mask)
        if not np.isfinite(loss) or not self.model.is_finite():
            self.flagged = True
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
