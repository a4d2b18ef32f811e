"""Loopback and TCP transports carrying identical frame bytes.

An Endpoint owns one side of one node<->server channel.  Every send runs the
frame through the shared codec and books the payload bits in the ledger, so
the two transports are interchangeable byte for byte.  Loopback frames wait
in in-process buffers and a read never blocks; TCP reads block up to the
socket timeout.

TCP sessions start with a 4-byte node id preamble so the server can label the
connection before any protocol message flows; the preamble is session setup,
not payload, and is never booked.
"""

from __future__ import annotations

import socket
import struct
from collections import deque
from dataclasses import dataclass

from .errors import ProtocolError, TransportError
from .model import PruneMask
from .wire import (
    DOWN,
    UP,
    BandwidthLedger,
    Message,
    WireCodec,
    header_overhead_bytes,
    message_category,
)

_PREAMBLE = struct.Struct("<I")
_DEFAULT_TIMEOUT = 30.0


class _LoopbackChannel:
    """One side of an in-process pair: frames queue in the peer's buffer.

    Nothing blocks: a recv with no frame waiting raises at once.
    """

    def __init__(self, inbox: deque[bytes], outbox: deque[bytes]):
        self._inbox = inbox
        self._outbox = outbox

    def send_bytes(self, frame: bytes) -> None:
        self._outbox.append(frame)

    def recv_bytes(self) -> bytes:
        if not self._inbox:
            raise TransportError("loopback recv on an empty channel")
        return self._inbox.popleft()


class _SocketChannel:
    """Framed reads/writes over one TCP connection."""

    def __init__(self, sock: socket.socket, timeout: float):
        self.sock = sock
        self.sock.settimeout(timeout)

    def send_bytes(self, frame: bytes) -> None:
        try:
            self.sock.sendall(frame)
        except OSError as e:
            raise TransportError(f"send failed: {e}") from e

    def _read_exact(self, n: int) -> bytes:
        chunks = []
        remaining = n
        while remaining:
            try:
                chunk = self.sock.recv(remaining)
            except socket.timeout:
                raise TransportError("tcp recv timed out") from None
            except OSError as e:
                raise TransportError(f"recv failed: {e}") from e
            if not chunk:
                raise TransportError("connection closed mid-frame")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def recv_bytes(self) -> bytes:
        return WireCodec.read_frame(self._read_exact)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


@dataclass
class Endpoint:
    """One side of a channel: encodes, ships, books, decodes."""

    channel: object
    codec: WireCodec
    ledger: BandwidthLedger
    send_direction: str  # UP for node endpoints, DOWN for the server side
    peer_node_id: int

    def send(self, msg: Message, ref_mask: PruneMask | None = None) -> bytes:
        frame = self.codec.encode(msg, ref_mask)
        overhead = header_overhead_bytes(msg.mtype)
        # the channel is labeled with the node it serves, in both directions
        self.ledger.record(
            self.peer_node_id,
            msg.round_idx,
            self.send_direction,
            message_category(msg.mtype),
            payload_bits=(len(frame) - overhead) * 8,
        )
        self.channel.send_bytes(frame)
        return frame

    def recv(self, ref_mask: PruneMask | None = None) -> Message:
        frame = self.channel.recv_bytes()
        return self.codec.decode(frame, ref_mask)

    def close(self) -> None:
        close = getattr(self.channel, "close", None)
        if close:
            close()


def loopback_pair(
    node_id: int, codec: WireCodec, ledger: BandwidthLedger
) -> tuple[Endpoint, Endpoint]:
    """(server_side, node_side) endpoints joined by in-process frame buffers."""
    to_node: deque[bytes] = deque()
    to_server: deque[bytes] = deque()
    server = Endpoint(_LoopbackChannel(to_server, to_node), codec, ledger, DOWN, node_id)
    node = Endpoint(_LoopbackChannel(to_node, to_server), codec, ledger, UP, node_id)
    return server, node


class TcpServer:
    """Accepts node sessions; each session identifies itself with a preamble."""

    def __init__(self, host: str, port: int, timeout: float = _DEFAULT_TIMEOUT):
        self.timeout = timeout
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(timeout)

    @property
    def address(self) -> tuple[str, int]:
        return self._listener.getsockname()[:2]

    def accept_node(
        self, codec: WireCodec, ledger: BandwidthLedger
    ) -> tuple[int, Endpoint]:
        try:
            sock, _ = self._listener.accept()
        except socket.timeout:
            raise TransportError("accept timed out") from None
        chan = _SocketChannel(sock, self.timeout)
        (node_id,) = _PREAMBLE.unpack(chan._read_exact(_PREAMBLE.size))
        return node_id, Endpoint(chan, codec, ledger, DOWN, node_id)

    def close(self) -> None:
        self._listener.close()


def tcp_connect(
    host: str,
    port: int,
    node_id: int,
    codec: WireCodec,
    ledger: BandwidthLedger,
    timeout: float = _DEFAULT_TIMEOUT,
) -> Endpoint:
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as e:
        raise TransportError(f"connect to {host}:{port} failed: {e}") from e
    chan = _SocketChannel(sock, timeout)
    chan.send_bytes(_PREAMBLE.pack(node_id))
    return Endpoint(chan, codec, ledger, UP, node_id)
