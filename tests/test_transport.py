"""Loopback and TCP endpoints must move identical bytes."""

import errno
import gc
import os
import re
import socket
import struct
import threading
import time
import weakref
from contextlib import ExitStack

import numpy as np
import pytest

from mpfl import transport
from mpfl.errors import ProtocolError, TransportError
from mpfl.model import ModelParams, PruneMask
from mpfl.transport import Endpoint, TcpServer, loopback_pair, tcp_connect, tcp_pair
from mpfl.wire import MAGIC, Message, MsgType, WireCodec

from conftest import assert_refused, make_arch, make_model, random_mask, same_params


def frame_of(ep, ref):
    """The next frame ``ep`` reads, split: (type, round, node_id, payload bytes)."""
    mtype, round_idx, node_id, payload = ep.recv_frame(ref)
    return mtype, round_idx, node_id, bytes(payload)


@pytest.fixture
def ref():
    """The all-ones reference mask: every group travels."""
    return PruneMask.ones(make_arch(4, 9, 3))


class TestLoopback:
    def test_mask_roundtrip(self, ref, rng, loopback):
        server, node = loopback(0)
        mask = random_mask(ref.arch, rng)
        node.send(WireCodec.encode(Message(MsgType.MASK_UPLOAD, 2, node_id=0, mask=mask), ref))
        got = server.recv(make_model(ref.arch), ref)
        assert got.mask == mask
        assert got.round_idx == 2

    def test_weights_roundtrip(self, ref, loopback):
        server, node = loopback(1)
        model = make_model(ref.arch, seed=3)
        server.send(WireCodec.encode(Message(MsgType.INIT_WEIGHTS, 0, params=model), ref))
        dest = make_model(ref.arch, seed=4)
        got = node.recv(dest, ref)
        assert got.params is dest
        # float32 wire precision rounds the doubles, and nothing else changes
        rounded = ModelParams(
            model.arch,
            [w.astype(np.float32) for w in model.weights],
            [b.astype(np.float32) for b in model.biases],
        )
        assert same_params(got.params, rounded)

    def test_peer_cycle_stays_out_of_repr_and_eq(self, loopback):
        """The two ends of a link know each other, but neither repr nor == follows
        that cycle: each end shows and compares by its own fields."""
        server, node = loopback(3)
        assert server.peer is node and node.peer is server
        assert "peer=" not in repr(server) and "_queue" not in repr(node)
        assert server == server and server != node

    def test_closed_ends_are_freed_without_the_cycle_collector(self):
        """Closing both ends unlinks them, so a finished run's endpoints go as
        soon as the run drops them."""
        server, node = loopback_pair(0)
        refs = weakref.ref(server), weakref.ref(node)
        gc.disable()
        try:
            server.close()
            node.close()
            del server, node
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()

    def test_recv_timeout(self, ref, loopback, monkeypatch):
        """A read with nothing sent waits out the timeout, then fails, as on TCP."""
        monkeypatch.setattr(transport, "_TIMEOUT", 0.2)
        server, _ = loopback(0)
        t0 = time.perf_counter()
        with pytest.raises(TransportError, match="recv timed out"):
            server.recv(make_model(ref.arch), ref)
        assert 0.2 <= time.perf_counter() - t0 < 3.0


class TestTcp:
    def _run_pair(self, exchange):
        """Run ``exchange(server_ep, node_ep)`` over a real socket pair, on this
        thread."""
        server_ep, node_ep = tcp_pair(7)
        try:
            exchange(server_ep, node_ep)
        finally:
            server_ep.close()
            node_ep.close()

    def test_byte_identical_to_loopback(self, ref, rng, loopback):
        mask = random_mask(ref.arch, rng)
        msg = Message(MsgType.MASK_UPLOAD, 4, node_id=7, mask=mask)

        lo_server, lo_node = loopback(7)
        lo_node.send(WireCodec.encode(msg, ref))
        lo_frame = frame_of(lo_server, ref)

        frames = {}

        def exchange(server_ep, node_ep):
            node_ep.send(WireCodec.encode(msg, ref))
            frames["tcp"] = frame_of(server_ep, ref)
            node_ep.send(WireCodec.encode(msg, ref))
            assert server_ep.recv(make_model(ref.arch), ref).mask == mask

        self._run_pair(exchange)
        assert frames["tcp"] == lo_frame

    def test_disconnect_raises_transport_error(self, ref):
        def exchange(server_ep, node_ep):
            node_ep.close()
            with pytest.raises(TransportError):
                server_ep.recv(make_model(ref.arch), ref)

        self._run_pair(exchange)

    @pytest.mark.parametrize(
        "version, tag, match, offset",
        [(2, 5, "unsupported version 2", 4), (1, 9, "unknown message type 9", 5)],
        ids=["bad_version", "unknown_type"],
    )
    def test_bad_header_fails_before_the_body(self, ref, monkeypatch, version, tag, match, offset):
        """The header announces a 1 MiB body that never comes: the read fails on
        the header at once instead of waiting out the socket timeout."""

        def exchange(server_ep, node_ep):
            node_ep.sock.send(struct.pack("<4sBBII", MAGIC, version, tag, 0, 1 << 20))
            t0 = time.perf_counter()
            with pytest.raises(ProtocolError, match=match) as err:
                server_ep.recv(make_model(ref.arch), ref)
            assert time.perf_counter() - t0 < 1.0
            assert err.value.offset == offset

        monkeypatch.setattr(transport, "_TIMEOUT", 3.0)
        self._run_pair(exchange)

    @pytest.fixture
    def wide_frames(self, monkeypatch, loopback):
        """(down, up, their loopback frames split, their layout): a 64-16384-10
        weight frame each way, 4.9 MB, more than a loopback socket takes in one
        send.  Starting a thread fails the test."""

        def refuse(self):
            raise AssertionError("started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        ref = PruneMask.ones(make_arch(64, 16384, 10))
        model = make_model(ref.arch, seed=2)
        down = WireCodec.encode(Message(MsgType.GLOBAL_WEIGHTS, 1, params=model), ref)
        up = WireCodec.encode(Message(MsgType.WEIGHT_UPLOAD, 1, node_id=7, params=model), ref)
        assert len(down) > 4_000_000

        lo_server, lo_node = loopback(7)
        lo_server.send(down)
        lo_node.send(up)
        return down, up, (frame_of(lo_node, ref), frame_of(lo_server, ref)), ref

    def test_multi_mib_frames_cross_on_one_thread(self, wide_frames):
        """A wide frame goes down and back up one link with no thread: each
        read writes the bytes its peer queued.  Both frames equal their
        loopback frames."""
        down, up, want, ref = wide_frames

        def exchange(server_ep, node_ep):
            server_ep.send(down)
            got_down = frame_of(node_ep, ref)
            node_ep.send(up)
            got_up = frame_of(server_ep, ref)
            assert (got_down, got_up) == want

        self._run_pair(exchange)

    @pytest.mark.parametrize("server_reads_first", [True, False], ids=["server_first", "node_first"])
    def test_multi_mib_frames_queued_on_both_ends_cross(self, wide_frames, monkeypatch,
                                                         server_reads_first):
        """Both ends queue a wide frame before either reads: a read writes
        only its peer's queue, so whichever end reads first, both frames
        cross on one thread and equal their loopback frames."""
        down, up, want, ref = wide_frames

        def exchange(server_ep, node_ep):
            server_ep.send(down)
            node_ep.send(up)
            assert server_ep._queue and node_ep._queue
            if server_reads_first:
                got_up = frame_of(server_ep, ref)
                got_down = frame_of(node_ep, ref)
            else:
                got_down = frame_of(node_ep, ref)
                got_up = frame_of(server_ep, ref)
            assert (got_down, got_up) == want

        monkeypatch.setattr(transport, "_TIMEOUT", 5.0)
        self._run_pair(exchange)

    def test_silent_peer_times_out(self, ref, monkeypatch):
        """A read with nothing queued on its link waits out the timeout, then fails."""

        def exchange(server_ep, node_ep):
            t0 = time.perf_counter()
            with pytest.raises(TransportError, match="timed out"):
                server_ep.recv(make_model(ref.arch), ref)
            assert 0.3 <= time.perf_counter() - t0 < 3.0

        monkeypatch.setattr(transport, "_TIMEOUT", 0.3)
        self._run_pair(exchange)

    @pytest.fixture
    def high_fds(self):
        """Hold ``/dev/null`` open until new descriptors are above 1024,
        beyond what ``select()`` can wait on; closed afterwards."""
        resource = pytest.importorskip("resource")
        soft, _ = resource.getrlimit(resource.RLIMIT_NOFILE)
        if soft != resource.RLIM_INFINITY and soft < 1200:
            pytest.skip(f"RLIMIT_NOFILE {soft} leaves no room above 1024")
        held = [os.open(os.devnull, os.O_RDONLY)]
        try:
            while held[-1] < 1024:
                held.append(os.open(os.devnull, os.O_RDONLY))
            yield
        finally:
            for fd in held:
                os.close(fd)

    def test_silent_peer_times_out_above_fd_1024(self, ref, high_fds, monkeypatch):
        def exchange(server_ep, node_ep):
            assert server_ep.sock.fileno() > 1024
            with pytest.raises(TransportError, match="recv timed out"):
                server_ep.recv(make_model(ref.arch), ref)

        monkeypatch.setattr(transport, "_TIMEOUT", 0.3)
        self._run_pair(exchange)

    def test_multi_mib_frames_cross_above_fd_1024(self, wide_frames, high_fds):
        down, up, want, ref = wide_frames

        def exchange(server_ep, node_ep):
            assert node_ep.sock.fileno() > 1024
            server_ep.send(down)
            got_down = frame_of(node_ep, ref)
            node_ep.send(up)
            assert (got_down, frame_of(server_ep, ref)) == want

        self._run_pair(exchange)

    def test_send_failure_raises_transport_error(self, ref):
        """A send the kernel refuses fails as a TransportError, which
        ``compare`` isolates, not as a raw ``OSError``."""

        def exchange(server_ep, node_ep):
            server_ep.sock.shutdown(socket.SHUT_WR)
            frame = WireCodec.encode(Message(MsgType.GLOBAL_MASK, 1, mask=ref), ref)
            with pytest.raises(TransportError, match="send failed"):
                server_ep.send(frame)

        self._run_pair(exchange)

    def test_connect_refused(self, monkeypatch):
        monkeypatch.setattr(transport, "_TIMEOUT", 0.5)
        with pytest.raises(TransportError):
            tcp_connect("127.0.0.1", 1, 0)


@pytest.mark.parametrize("kind", ["loopback", "tcp"])
def test_length_the_layout_disagrees_with_fails_at_once(ref, monkeypatch, loopback, kind):
    """A weight upload whose header claims 4 bytes more than its layout fails
    the read with a ProtocolError naming both lengths, on either transport: a
    TCP read does not wait out its timeout for bytes that never come."""
    with ExitStack() as stack:
        if kind == "tcp":
            monkeypatch.setattr(transport, "_TIMEOUT", 3.0)
            server, node = tcp_pair(7)
        else:
            server, node = loopback(7)
        stack.callback(server.close)
        stack.callback(node.close)
        msg = Message(MsgType.WEIGHT_UPLOAD, 1, node_id=7, params=make_model(ref.arch))
        frame = WireCodec.encode(msg, ref)
        size = len(frame) - 18  # 14 header bytes and the sender id
        struct.pack_into("<I", frame, 10, size + 4)
        node.sock.sendall(frame)
        t0 = time.perf_counter()
        with pytest.raises(ProtocolError) as err:
            server.recv_frame(ref)
        assert time.perf_counter() - t0 < 1.0
        assert {str(size), str(size + 4)} <= set(re.findall(r"\d+", str(err.value)))


class TestPairing:
    @pytest.fixture
    def endpoint_addresses(self, monkeypatch):
        """(made, closed): the local address of every ``Endpoint`` made, and
        of every one closed, during the test."""
        made, closed = [], []
        init, close = Endpoint.__init__, Endpoint.close

        def recording_init(self, sock, *args):
            init(self, sock, *args)
            made.append(sock.getsockname())

        def recording_close(self):
            closed.append(self.sock.getsockname())
            close(self)

        monkeypatch.setattr(Endpoint, "__init__", recording_init)
        monkeypatch.setattr(Endpoint, "close", recording_close)
        return made, closed

    def test_failed_accept_raises_transport_error(self, endpoint_addresses, tcp_listeners,
                                                  monkeypatch):
        """An accept the kernel refuses (here, out of descriptors) fails the
        pairing as a TransportError, which ``compare`` isolates, not as a raw
        ``OSError``; the node's socket and the listener are closed."""
        made, closed = endpoint_addresses

        def refuse(self):
            raise OSError(errno.EMFILE, "Too many open files")

        monkeypatch.setattr(socket.socket, "accept", refuse)
        with pytest.raises(TransportError, match="accept failed: .*Too many open files"):
            tcp_pair(0)
        assert closed == made and len(made) == 1
        assert len(tcp_listeners) == 1
        assert_refused(tcp_listeners)

    def test_stranger_connecting_first_is_refused(self, endpoint_addresses, monkeypatch):
        """A raw socket that connects first and sends a node id is not taken
        for the node: the pairing fails at once naming both addresses, and
        closes the node's socket, the stranger's accepted one and the
        listener."""
        made, closed = endpoint_addresses
        addresses, strangers = [], []
        listen = TcpServer.__init__

        def stranger_first_listen(self):
            listen(self)
            addresses.append(self.address)
            strangers.append(socket.create_connection(self.address, timeout=5.0))
            strangers[-1].sendall(struct.pack("<I", 0))

        monkeypatch.setattr(TcpServer, "__init__", stranger_first_listen)
        t0 = time.perf_counter()
        with pytest.raises(TransportError, match="refused") as err:
            tcp_pair(0)
        assert time.perf_counter() - t0 < 1.0
        (stranger,) = strangers
        with stranger:
            (node,) = made
            assert closed == [node]
            for host, port in (node, stranger.getsockname()):
                assert f"{host}:{port}" in str(err.value)
            # closed with the stranger's id unread, the accepted socket resets
            with pytest.raises(ConnectionResetError):
                stranger.recv(1)
        assert len(addresses) == 1
        assert_refused(addresses)
