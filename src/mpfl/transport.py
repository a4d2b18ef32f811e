"""Loopback and TCP transports carrying identical frame bytes.

An Endpoint is one end of one node<->server link: it owns the link's
non-blocking stream socket on its side and only moves frames, so the two
transports are interchangeable byte for byte; the round driver books them.
A received frame is decoded against the reference mask the caller names, a
weight frame into a model the caller owns, or handed over split, undecoded.

The transports differ only in how a link's two sockets are made.  A
loopback link is a Unix socket pair made in the process.  A TCP link is a
connection to a listener on 127.0.0.1 that lives only while the link is
made, paired by its socket addresses: the server takes a connection as a
node's only if it comes from that node's own socket.  Neither needs a
thread: a read that would block first writes what its peer has queued (see
``Endpoint``), so one thread drives both ends of a link.
"""

from __future__ import annotations

import select
import socket
from collections import deque
from dataclasses import dataclass

from .errors import TransportError
from .model import ModelParams, PruneMask
from .wire import DOWN, UP, Message, MsgType, WireCodec

_TIMEOUT = 30.0  # seconds an accept, connect or read waits before it fails


@dataclass
class Endpoint:
    """One end of a node<->server link: it ships encoded frames, and reads and
    decodes received ones, over one non-blocking stream socket.

    A send queues a view of its frame, no copy, and writes what the kernel
    takes.  A read that would block writes its peer's queued bytes (the
    other end of its link) into this socket's receive buffer, then waits up to
    ``_TIMEOUT`` for this socket to turn readable, or fails.  This end's own
    queue goes out when its peer reads.
    """

    sock: socket.socket
    send_direction: str  # UP for node endpoints, DOWN for the server side
    peer_node_id: int

    def __post_init__(self):
        # not fields, so the two peers' cycle stays out of repr and eq
        self.peer: Endpoint | None = None  # set by _joined before any read
        self._queue: deque[memoryview] = deque()
        self.sock.setblocking(False)
        # poll, unlike select(), waits on descriptors of 1024 and above, and
        # holds no descriptor of its own
        self._poll = select.poll()
        self._poll.register(self.sock, select.POLLIN)

    def send(self, frame: bytes) -> None:
        """Ship one encoded frame; a broadcast sends the same frame on every link."""
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

    def _read_into(self, view: memoryview) -> None:
        """Fill ``view`` from the socket."""
        while view:
            try:
                n = self.sock.recv_into(view)
            except BlockingIOError:
                self.peer._flush()
                if not self._poll.poll(_TIMEOUT * 1000):
                    raise TransportError("recv timed out")
                continue
            except OSError as e:
                raise TransportError(f"recv failed: {e}") from e
            if not n:
                raise TransportError("connection closed mid-frame")
            view = view[n:]

    def recv(self, into: ModelParams, ref_mask: PruneMask) -> Message:
        """The next message, laid out by ``ref_mask``; a weight frame is decoded into ``into``."""
        return WireCodec.decode(WireCodec.read_frame(self._read_into, ref_mask), into, ref_mask)

    def recv_frame(self, ref_mask: PruneMask) -> tuple[MsgType, int, int | None, memoryview]:
        """The next frame, laid out by ``ref_mask``, split but not decoded:
        (type, round, node_id, payload view)."""
        return WireCodec.split_frame(WireCodec.read_frame(self._read_into, ref_mask))

    def close(self) -> None:
        self.peer = None  # unlinks the peers' cycle: refcounting, not gc, frees both
        try:
            self.sock.close()
        except OSError:
            pass


def _joined(server: Endpoint, node: Endpoint) -> tuple[Endpoint, Endpoint]:
    """(server, node), each end now knowing the other: a read on either writes
    the bytes the other has queued, so one thread drives the link."""
    server.peer, node.peer = node, server
    return server, node


def loopback_pair(node_id: int) -> tuple[Endpoint, Endpoint]:
    """(server_side, node_side) endpoints of one Unix socket pair."""
    try:
        a, b = socket.socketpair()
    except OSError as e:  # e.g. no descriptor left for the pair
        raise TransportError(f"socket pair failed: {e}") from e
    return _joined(Endpoint(a, DOWN, node_id), Endpoint(b, UP, node_id))


class TcpServer:
    """Accepts node links, each only from its node's own socket.

    Both ends of every link live in the run's process, so the listener binds
    127.0.0.1 on a port the OS picks: no other host reaches it.
    """

    def __init__(self):
        try:
            self._listener = socket.create_server(("127.0.0.1", 0))
        except OSError as e:
            raise TransportError(f"listen on 127.0.0.1 failed: {e}") from e

    @property
    def address(self) -> tuple[str, int]:
        return self._listener.getsockname()[:2]

    def accept_node(self, node: Endpoint) -> Endpoint:
        """The server side of ``node``'s link.  The next connection must come
        from ``node``'s own socket; any other is closed and fails the accept."""
        self._listener.settimeout(_TIMEOUT)
        try:
            sock, peer = self._listener.accept()
        except OSError as e:  # a timeout, or no descriptor left for the socket
            raise TransportError(f"accept failed: {e}") from e
        want = node.sock.getsockname()
        if peer != want:
            sock.close()
            raise TransportError(f"refused {peer[0]}:{peer[1]}: node {node.peer_node_id} "
                                 f"connected from {want[0]}:{want[1]}")
        return Endpoint(sock, DOWN, node.peer_node_id)

    def close(self) -> None:
        self._listener.close()


def tcp_connect(host: str, port: int, node_id: int) -> Endpoint:
    """The node side of a link, connected to ``host:port``."""
    try:
        sock = socket.create_connection((host, port), timeout=_TIMEOUT)
    except OSError as e:
        raise TransportError(f"connect to {host}:{port} failed: {e}") from e
    return Endpoint(sock, UP, node_id)


def tcp_pair(node_id: int) -> tuple[Endpoint, Endpoint]:
    """(server_side, node_side) endpoints of one TCP link, both in this process.

    The link's own listener lives only while the link is made.  The node
    connects before the accept, which the listen backlog allows, and the
    accept takes only the connection from the node's own socket.  The
    listener is closed before the pair returns, and a failed pairing closes
    every socket it made.
    """
    listener = TcpServer()
    try:
        node = tcp_connect(*listener.address, node_id)
        try:
            return _joined(listener.accept_node(node), node)
        except BaseException:
            node.close()
            raise
    finally:
        listener.close()
