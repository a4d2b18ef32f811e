"""Shared data model: layer layout, parameters, pruning masks, scores, votes.

The prunable unit everywhere is a weight *group*: one output neuron of a dense
layer, i.e. its incoming weight row plus its bias.  A mask therefore carries a
single bit per neuron, which is what makes the uplink cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, LayoutError


@dataclass(frozen=True)
class ArchSpec:
    """A dense ReLU classifier given by its widths ``(input, hidden..., classes)``.

    Dense layer ``i`` maps ``dims[i]`` inputs to ``dims[i + 1]`` outputs, with a
    ReLU between consecutive dense layers.
    """

    dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.dims) < 2:
            raise ConfigError("mlp needs at least input and output dims")
        if min(self.dims) <= 0:
            raise ConfigError(f"layer dims must be positive, got {list(self.dims)}")

    @classmethod
    def mlp(cls, dims: Sequence[int]) -> "ArchSpec":
        return cls(tuple(int(d) for d in dims))

    @property
    def shapes(self) -> tuple[tuple[int, int], ...]:
        """Weight shape ``(out, in)`` per dense layer."""
        return tuple(zip(self.dims[1:], self.dims[:-1]))

    @property
    def groups(self) -> tuple[int, ...]:
        """Prunable group count per dense layer (one per output neuron)."""
        return self.dims[1:]

    @property
    def group_sizes(self) -> tuple[int, ...]:
        """Scalars owned by one group: the weight row plus the bias."""
        return tuple(d + 1 for d in self.dims[:-1])

    @property
    def in_dim(self) -> int:
        return self.dims[0]

    @property
    def num_classes(self) -> int:
        return self.dims[-1]

    @property
    def num_groups(self) -> int:
        return sum(self.groups)


@dataclass
class ModelParams:
    """Per-dense-layer weights (out x in) and biases (out,), float64.

    Also used for gradients, which share the exact same layout.
    """

    arch: ArchSpec
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        shapes = self.arch.shapes
        if len(self.weights) != len(shapes) or len(self.biases) != len(shapes):
            raise LayoutError(
                f"expected {len(shapes)} dense layers, got "
                f"{len(self.weights)} weight / {len(self.biases)} bias arrays"
            )
        for i, (shape, w, b) in enumerate(zip(shapes, self.weights, self.biases)):
            if w.shape != shape:
                raise LayoutError(f"layer {i}: weight shape {w.shape} != {shape}")
            if b.shape != shape[:1]:
                raise LayoutError(f"layer {i}: bias shape {b.shape} != {shape[:1]}")

    def copy(self) -> "ModelParams":
        return ModelParams(
            self.arch,
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
        )

    def group_matrix(self, layer: int) -> np.ndarray:
        """Rows are groups: weight row with the bias appended, shape (out, in+1)."""
        return np.hstack([self.weights[layer], self.biases[layer][:, None]])

    def is_finite(self) -> bool:
        return all(np.all(np.isfinite(a)) for a in self.weights + self.biases)


@dataclass(frozen=True)
class Batch:
    """A minibatch of feature rows and integer class labels."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if self.x.ndim != 2:
            raise ConfigError(f"batch features must be 2-D, got shape {self.x.shape}")
        if self.y.shape != (self.x.shape[0],):
            raise ConfigError(
                f"labels shape {self.y.shape} does not match {self.x.shape[0]} rows"
            )

    def __len__(self) -> int:
        return self.x.shape[0]


def _check_mask_layout(arch: ArchSpec, layers: Sequence[np.ndarray]) -> None:
    if len(layers) != len(arch.groups):
        raise LayoutError(
            f"mask has {len(layers)} layers, architecture has {len(arch.groups)}"
        )
    for i, (bits, n) in enumerate(zip(layers, arch.groups)):
        if bits.shape != (n,):
            raise LayoutError(f"mask layer {i}: shape {bits.shape} != ({n},)")


@dataclass
class PruneMask:
    """One keep/drop bit per weight group, grouped per dense layer."""

    arch: ArchSpec
    layers: list[np.ndarray]  # bool arrays

    def __post_init__(self):
        self.layers = [np.asarray(l, dtype=bool) for l in self.layers]
        _check_mask_layout(self.arch, self.layers)

    @classmethod
    def ones(cls, arch: ArchSpec) -> "PruneMask":
        return cls(arch, [np.ones(n, dtype=bool) for n in arch.groups])

    def copy(self) -> "PruneMask":
        return PruneMask(self.arch, [l.copy() for l in self.layers])

    def keep_counts(self) -> list[int]:
        return [int(l.sum()) for l in self.layers]

    @property
    def num_groups(self) -> int:
        return self.arch.num_groups

    def num_kept(self) -> int:
        return sum(self.keep_counts())

    def sparsity(self) -> float:
        """Fraction of groups pruned."""
        return 1.0 - self.num_kept() / self.num_groups

    def issubset(self, other: "PruneMask") -> bool:
        """True if every group kept here is also kept in ``other``."""
        return all(bool(np.all(b | ~a)) for a, b in zip(self.layers, other.layers))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PruneMask):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in zip(self.layers, other.layers))


@dataclass
class ScoreVector:
    """Per-group importance scores, grouped per dense layer.  Non-negative."""

    arch: ArchSpec
    layers: list[np.ndarray]

    def __post_init__(self):
        self.layers = [np.asarray(l, dtype=np.float64) for l in self.layers]
        _check_mask_layout(self.arch, self.layers)
        for i, l in enumerate(self.layers):
            if np.any(l < 0):
                raise LayoutError(f"score layer {i} has negative entries")

    def concat(self) -> np.ndarray:
        return np.concatenate(self.layers) if self.layers else np.zeros(0)


@dataclass
class VoteHistogram:
    """Per-group keep-vote fractions: entry * n_nodes is an integer count."""

    arch: ArchSpec
    layers: list[np.ndarray]
    n_nodes: int

    def __post_init__(self):
        _check_mask_layout(self.arch, self.layers)
        if self.n_nodes <= 0:
            raise ConfigError("vote histogram needs n_nodes >= 1")

    def keep_votes(self, layer: int) -> np.ndarray:
        """Integer keep-vote counts for one layer."""
        return np.rint(self.layers[layer] * self.n_nodes).astype(np.int64)


def init_params(arch: ArchSpec, rng: np.random.Generator) -> ModelParams:
    """Uniform(-a, a) weights with a = sqrt(6 / (in + out)); zero biases."""
    weights, biases = [], []
    for out_dim, in_dim in arch.shapes:
        a = np.sqrt(6.0 / (in_dim + out_dim))
        weights.append(rng.uniform(-a, a, size=(out_dim, in_dim)))
        biases.append(np.zeros(out_dim))
    return ModelParams(arch, weights, biases)
