"""Loopback and TCP transports carrying identical frame bytes.

An Endpoint owns one side of one node<->server channel.  It sends encoded
frames and books their payload bits in the ledger, so the two transports are
interchangeable byte for byte.  A received frame is decoded against the
reference mask the caller names, a weight frame into a model the caller owns,
or handed over split, undecoded.

Neither transport needs a thread.  Loopback frames wait in in-process buffers
and a read never blocks.  TCP sockets are non-blocking, and a read that would
block first writes what its peer has queued (see ``_SocketChannel``), so one
thread drives both ends of a ``tcp_pair``.

TCP sessions start with a 4-byte node id preamble so the server can label the
connection before any protocol message flows; the preamble is session setup,
not payload, and is never booked.
"""

from __future__ import annotations

import selectors
import socket
import struct
from collections import deque
from contextlib import ExitStack
from dataclasses import dataclass

from .errors import TransportError
from .model import ModelParams, PruneMask
from .wire import DOWN, UP, BandwidthLedger, Message, MsgType, WireCodec, message_category

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
    """Framed reads/writes over one non-blocking TCP connection.

    A send queues a view of its frame, no copy, and writes what the kernel
    takes.  A read that would block writes its peer's queued bytes (the other
    end, when ``tcp_pair`` made both) into this socket's receive buffer, then
    waits up to ``timeout`` for this socket to turn readable, or fails.  This
    end's own queue goes out when its peer reads.
    """

    def __init__(self, sock: socket.socket, timeout: float):
        self.sock = sock
        self.sock.setblocking(False)
        self.timeout = timeout
        # a selector, unlike select(), waits on descriptors of 1024 and above
        self._selector = selectors.DefaultSelector()
        self._selector.register(sock, selectors.EVENT_READ)
        self.peer: _SocketChannel | None = None
        self._queue: deque[memoryview] = deque()

    def send_bytes(self, frame) -> None:
        self._queue.append(memoryview(frame))
        self._flush()

    def _flush(self) -> None:
        """Write queued bytes until the queue is empty or the kernel takes no more."""
        queue = self._queue
        while queue:
            try:
                n = self.sock.send(queue[0])
            except BlockingIOError:
                return
            except OSError as e:
                raise TransportError(f"send failed: {e}") from e
            if n == len(queue[0]):
                queue.popleft()
            else:
                queue[0] = queue[0][n:]

    def _wait(self) -> None:
        if self.peer is not None:
            self.peer._flush()
        if not self._selector.select(self.timeout):
            raise TransportError("tcp recv timed out")

    def read_into(self, view: memoryview) -> None:
        """Fill ``view`` from the socket."""
        while view:
            try:
                n = self.sock.recv_into(view)
            except BlockingIOError:
                self._wait()
                continue
            except OSError as e:
                raise TransportError(f"recv failed: {e}") from e
            if not n:
                raise TransportError("connection closed mid-frame")
            view = view[n:]

    def recv_bytes(self) -> bytearray:
        return WireCodec.read_frame(self.read_into)

    def close(self) -> None:
        self._selector.close()
        try:
            self.sock.close()
        except OSError:
            pass


@dataclass
class Endpoint:
    """One side of a channel: ships and books encoded frames, decodes received ones."""

    channel: object
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

    def recv(self, into: ModelParams, ref_mask: PruneMask) -> Message:
        """The next message, laid out by ``ref_mask``; a weight frame is decoded into ``into``."""
        return WireCodec.decode(self.channel.recv_bytes(), into, ref_mask)

    def recv_frame(self) -> tuple[MsgType, int, int | None, memoryview]:
        """The next frame, split but not decoded: (type, round, node_id, payload view)."""
        return WireCodec.split_frame(self.channel.recv_bytes())

    def close(self) -> None:
        close = getattr(self.channel, "close", None)
        if close:
            close()


def loopback_pair(node_id: int, ledger: BandwidthLedger) -> tuple[Endpoint, Endpoint]:
    """(server_side, node_side) endpoints joined by in-process frame buffers."""
    to_node: deque[bytes] = deque()
    to_server: deque[bytes] = deque()
    server = Endpoint(_LoopbackChannel(to_server, to_node), ledger, DOWN, node_id)
    node = Endpoint(_LoopbackChannel(to_node, to_server), ledger, UP, node_id)
    return server, node


class TcpServer:
    """Accepts node sessions; each session identifies itself with a preamble."""

    def __init__(self, host: str, port: int, timeout: float = _DEFAULT_TIMEOUT):
        self.timeout = timeout
        try:
            self._listener = socket.create_server((host, port))
        except (OSError, OverflowError) as e:
            raise TransportError(f"listen on {host}:{port} failed: {e}") from e
        self._listener.settimeout(timeout)

    @property
    def address(self) -> tuple[str, int]:
        return self._listener.getsockname()[:2]

    def accept_node(self, ledger: BandwidthLedger) -> tuple[int, Endpoint]:
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
        return node_id, Endpoint(chan, ledger, DOWN, node_id)

    def close(self) -> None:
        self._listener.close()


def tcp_connect(
    host: str,
    port: int,
    node_id: int,
    ledger: BandwidthLedger,
    timeout: float = _DEFAULT_TIMEOUT,
) -> Endpoint:
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as e:
        raise TransportError(f"connect to {host}:{port} failed: {e}") from e
    chan = _SocketChannel(sock, timeout)
    try:
        chan.send_bytes(_PREAMBLE.pack(node_id))
    except TransportError:
        chan.close()
        raise
    return Endpoint(chan, ledger, UP, node_id)


def tcp_pair(listener: TcpServer, node_id: int, ledger: BandwidthLedger) -> tuple[Endpoint, Endpoint]:
    """(server_side, node_side) endpoints of one TCP link, both in this process.

    The node connects and sends its preamble before the accept, which the
    listen backlog allows, so the accepted session must name ``node_id``.
    Both ends then know each other: a read on either writes the bytes the
    other has queued, so one thread drives the link.  Both ends take the
    listener's timeout, and a failed pairing closes every socket it made.
    """
    with ExitStack() as stack:
        host, port = listener.address
        node = tcp_connect(host, port, node_id, ledger, listener.timeout)
        stack.callback(node.close)
        peer, server = listener.accept_node(ledger)
        stack.callback(server.close)
        if peer != node_id:
            raise TransportError(f"node {node_id} connected as node {peer}")
        stack.pop_all()
    server.channel.peer, node.channel.peer = node.channel, server.channel
    return server, node
