"""Shared fixtures and small helpers for the test suite."""

import socket
import threading

import numpy as np
import pytest

from mpfl.model import ArchSpec, ModelParams, PruneMask, init_params
from mpfl.transport import TcpServer, loopback_pair


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


@pytest.fixture
def loopback():
    """``loopback_pair``, whose endpoints are closed after the test."""
    made = []

    def pair(node_id, ledger):
        server, node = loopback_pair(node_id, ledger)
        made.extend((server, node))
        return server, node

    yield pair
    for ep in made:
        ep.close()


@pytest.fixture
def tcp_listeners(monkeypatch):
    """The address of every ``TcpServer`` made during the test."""
    addresses = []
    listen = TcpServer.__init__

    def recording_listen(self):
        listen(self)
        addresses.append(self.address)

    monkeypatch.setattr(TcpServer, "__init__", recording_listen)
    return addresses


def assert_refused(addresses) -> None:
    """Each of ``addresses`` refuses a connection: no listener is left on it."""
    for address in addresses:
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(address, timeout=1.0).close()


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """A test that leaves a thread running fails."""
    before = set(threading.enumerate())
    yield
    left = [t for t in threading.enumerate() if t not in before]
    assert not left, f"threads left running: {left}"
