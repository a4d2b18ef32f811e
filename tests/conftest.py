"""Shared fixtures and small helpers for the test suite."""

import numpy as np
import pytest

from mpfl.model import ArchSpec, ModelParams, PruneMask, init_params


def make_arch(*dims: int) -> ArchSpec:
    return ArchSpec.mlp(list(dims))


def make_model(arch: ArchSpec, seed: int = 0) -> ModelParams:
    rng = np.random.default_rng(seed)
    return init_params(arch, rng)


def random_mask(arch: ArchSpec, rng: np.random.Generator, keep_prob: float = 0.7) -> PruneMask:
    """Random mask with at least one live group per layer."""
    layers = []
    for g in arch.groups:
        bits = rng.random(g) < keep_prob
        if not bits.any():
            bits[rng.integers(g)] = True
        layers.append(bits)
    return PruneMask(arch=arch, layers=layers)


def both(a: PruneMask, b: PruneMask) -> PruneMask:
    """The groups kept in both masks."""
    return PruneMask(a.arch, [x & y for x, y in zip(a.layers, b.layers)])


def same_params(a: ModelParams, b: ModelParams) -> bool:
    """Every weight and bias array equal; +0.0 and -0.0 compare equal."""
    return a.arch == b.arch and all(
        np.array_equal(x, y) for x, y in zip(a.weights + a.biases, b.weights + b.biases)
    )


def packed_mask_bits(arch: ArchSpec) -> int:
    """Bits in a packed mask: each layer's groups padded to whole bytes."""
    return sum(8 * ((n + 7) // 8) for n in arch.groups)


def zero_group_mask(params: ModelParams) -> PruneMask:
    """The mask a model implies: a group is pruned iff its row and bias are all zero."""
    layers = [np.any(params.group_matrix(i) != 0.0, axis=1) for i in range(len(params.weights))]
    return PruneMask(params.arch, layers)


@pytest.fixture
def tiny_arch() -> ArchSpec:
    return make_arch(4, 8, 3)


@pytest.fixture
def tiny_model(tiny_arch) -> ModelParams:
    return make_model(tiny_arch, seed=1)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
