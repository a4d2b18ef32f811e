"""Codec fuzzing: random round trips and corrupt-frame survival.

Round trips must reproduce every message bit for bit (weights are drawn as
float32 values, the wire type, so quantization is lossless), decoded into a
destination full of NaN.  Corrupt frames must either decode cleanly or raise
ProtocolError; anything else is a crash.
"""

from __future__ import annotations

import numpy as np

from .errors import ProtocolError
from .model import ArchSpec, ModelParams, PruneMask
from .wire import Message, MsgType, WireCodec

_VARIANTS = list(MsgType)


def _random_arch(rng: np.random.Generator) -> ArchSpec:
    dims = [int(rng.integers(1, 13)) for _ in range(int(rng.integers(2, 5)))]
    return ArchSpec.mlp(dims)


def _random_mask(arch: ArchSpec, rng: np.random.Generator) -> PruneMask:
    return PruneMask(arch, [rng.integers(0, 2, size=n).astype(bool) for n in arch.groups])


def _random_params(arch: ArchSpec, rng: np.random.Generator) -> ModelParams:
    weights, biases = [], []
    for out_dim, in_dim in arch.shapes:
        w = rng.standard_normal((out_dim, in_dim)).astype(np.float32)
        b = rng.standard_normal(out_dim).astype(np.float32)
        weights.append(w.astype(np.float64))
        biases.append(b.astype(np.float64))
    return ModelParams(arch, weights, biases)


def _garbage(arch: ArchSpec) -> ModelParams:
    """A decode destination full of NaN: a round trip must overwrite every entry."""
    return ModelParams(
        arch, [np.full(s, np.nan) for s in arch.shapes], [np.full(n, np.nan) for n in arch.groups]
    )


def _random_case(rng: np.random.Generator):
    """One (message, ref_mask) pair with a losslessly encodable body."""
    from .pruning import apply_mask

    arch = _random_arch(rng)
    mtype = _VARIANTS[int(rng.integers(0, len(_VARIANTS)))]
    round_idx = int(rng.integers(0, 2**16))
    node_id = int(rng.integers(0, 64))
    ref = _random_mask(arch, rng)

    if mtype in (MsgType.MASK_UPLOAD, MsgType.GLOBAL_MASK):
        msg = Message(
            mtype,
            round_idx,
            node_id=node_id if mtype == MsgType.MASK_UPLOAD else None,
            mask=_random_mask(arch, rng),
        )
        return msg, ref
    params = apply_mask(_random_params(arch, rng), ref)
    msg = Message(
        mtype,
        round_idx,
        node_id=node_id if mtype == MsgType.WEIGHT_UPLOAD else None,
        params=params,
    )
    return msg, ref


def _equal(a: Message, b: Message) -> bool:
    if (a.mtype, a.round_idx, a.node_id) != (b.mtype, b.round_idx, b.node_id):
        return False
    if a.mask is not None:
        return b.mask is not None and a.mask == b.mask
    return b.params is not None and all(
        np.array_equal(x, y)
        for x, y in zip(
            a.params.weights + a.params.biases, b.params.weights + b.params.biases
        )
    )


def roundtrip_fuzz(cases: int, seed: int = 0) -> int:
    """Encode/decode ``cases`` random messages; returns how many round-tripped."""
    rng = np.random.default_rng(seed)
    ok = 0
    for _ in range(cases):
        msg, ref = _random_case(rng)
        decoded = WireCodec.decode(WireCodec.encode(msg, ref), _garbage(ref.arch), ref)
        ok += _equal(msg, decoded)
    return ok


def _corrupt(frame: bytes, rng: np.random.Generator) -> bytes:
    buf = bytearray(frame)
    mode = int(rng.integers(0, 4))
    if mode == 0 and len(buf) > 0:  # truncate
        return bytes(buf[: int(rng.integers(0, len(buf)))])
    if mode == 1:  # append garbage
        return bytes(buf) + rng.bytes(int(rng.integers(1, 16)))
    if mode == 2 and len(buf) > 0:  # flip bits
        for _ in range(int(rng.integers(1, 9))):
            pos = int(rng.integers(0, len(buf)))
            buf[pos] ^= 1 << int(rng.integers(0, 8))
        return bytes(buf)
    return rng.bytes(int(rng.integers(0, 64)))  # pure noise


def corrupt_frame_fuzz(cases: int, seed: int = 0) -> int:
    """Feed mangled frames to the decoder; returns how many were handled
    (decoded or rejected with ProtocolError) without crashing."""
    rng = np.random.default_rng(seed)
    survived = 0
    for _ in range(cases):
        msg, ref = _random_case(rng)
        frame = _corrupt(WireCodec.encode(msg, ref), rng)
        try:
            WireCodec.decode(frame, _garbage(ref.arch), ref)
        except ProtocolError:
            pass
        survived += 1
    return survived
