"""Loopback and TCP transports carrying identical frame bytes.

An Endpoint owns one side of one node<->server channel.  It sends frames the
shared codec encoded and books their payload bits in the ledger, so the two
transports are interchangeable byte for byte.  A received weight frame is
decoded into a model the caller owns.  Loopback frames wait
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

from .errors import TransportError
from .model import ModelParams, PruneMask
from .wire import DOWN, UP, BandwidthLedger, Message, WireCodec, message_category

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

    def read_into(self, view: memoryview) -> None:
        """Fill ``view`` from the socket."""
        while view:
            try:
                n = self.sock.recv_into(view)
            except socket.timeout:
                raise TransportError("tcp recv timed out") from None
            except OSError as e:
                raise TransportError(f"recv failed: {e}") from e
            if not n:
                raise TransportError("connection closed mid-frame")
            view = view[n:]

    def recv_bytes(self) -> bytearray:
        return WireCodec.read_frame(self.read_into)

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

    def send(self, frame: bytes) -> None:
        """Book and ship one encoded frame; a broadcast sends the same frame on every link."""
        mtype, round_idx, _, payload = WireCodec.split_frame(frame)
        # the channel is labeled with the node it serves, in both directions
        self.ledger.record(
            self.peer_node_id,
            round_idx,
            self.send_direction,
            message_category(mtype),
            payload_bits=len(payload) * 8,
        )
        self.channel.send_bytes(frame)

    def recv(self, into: ModelParams, ref_mask: PruneMask | None = None) -> Message:
        """The next message; a weight frame is decoded into ``into``."""
        return self.codec.decode(self.channel.recv_bytes(), into, ref_mask)

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
        hello = bytearray(_PREAMBLE.size)
        try:
            chan.read_into(memoryview(hello))
        except TransportError:
            chan.close()
            raise
        (node_id,) = _PREAMBLE.unpack(hello)
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
