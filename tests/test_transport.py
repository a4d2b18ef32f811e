"""Loopback and TCP endpoints must move identical bytes and book them once."""

import os
import struct
import threading
import time

import numpy as np
import pytest

from mpfl.errors import ProtocolError, TransportError
from mpfl.model import ModelParams, PruneMask
from mpfl.transport import TcpServer, loopback_pair, tcp_connect, tcp_pair
from mpfl.wire import (
    CAT_MASK,
    DOWN,
    MAGIC,
    UP,
    BandwidthLedger,
    Message,
    MsgType,
    WireCodec,
)

from conftest import make_arch, make_model, packed_mask_bits, random_mask, same_params


@pytest.fixture
def ref():
    """The all-ones reference mask: every group travels."""
    return PruneMask.ones(make_arch(4, 9, 3))


class TestLoopback:
    def test_mask_roundtrip(self, ref, rng):
        ledger = BandwidthLedger()
        server, node = loopback_pair(0, ledger)
        mask = random_mask(ref.arch, rng)
        node.send(WireCodec.encode(Message(MsgType.MASK_UPLOAD, 2, node_id=0, mask=mask), ref))
        got = server.recv(make_model(ref.arch), ref)
        assert got.mask == mask
        assert got.round_idx == 2

    def test_weights_roundtrip(self, ref):
        ledger = BandwidthLedger()
        server, node = loopback_pair(1, ledger)
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

    def test_ledger_directions(self, ref, rng):
        ledger = BandwidthLedger()
        server, node = loopback_pair(5, ledger)
        mask = PruneMask.ones(ref.arch)
        node.send(WireCodec.encode(Message(MsgType.MASK_UPLOAD, 1, node_id=5, mask=mask), ref))
        server.send(WireCodec.encode(Message(MsgType.GLOBAL_MASK, 1, mask=mask), ref))
        size_bits = packed_mask_bits(ref.arch)
        assert ledger.total_bits(direction=UP) == size_bits
        assert ledger.total_bits(direction=DOWN) == size_bits
        assert ledger.per_node_bits() == {5: 2 * size_bits}
        assert ledger.total_bits(category=CAT_MASK) == 2 * size_bits

    def test_recv_timeout(self, ref):
        ledger = BandwidthLedger()
        server, _ = loopback_pair(0, ledger)
        with pytest.raises(TransportError):
            server.recv(make_model(ref.arch), ref)


class TestTcp:
    def _run_pair(self, exchange, timeout=30.0):
        """Run ``exchange(server_ep, node_ep)`` over a real socket pair, on this thread."""
        ledger = BandwidthLedger()
        srv = TcpServer("127.0.0.1", 0, timeout=timeout)
        try:
            server_ep, node_ep = tcp_pair(srv, 7, ledger)
            try:
                exchange(server_ep, node_ep, ledger)
            finally:
                server_ep.close()
                node_ep.close()
        finally:
            srv.close()

    def test_byte_identical_to_loopback(self, ref, rng):
        mask = random_mask(ref.arch, rng)
        msg = Message(MsgType.MASK_UPLOAD, 4, node_id=7, mask=mask)

        lo_ledger = BandwidthLedger()
        lo_server, lo_node = loopback_pair(7, lo_ledger)
        lo_node.send(WireCodec.encode(msg, ref))
        lo_frame = lo_server.channel.recv_bytes()

        frames = {}

        def exchange(server_ep, node_ep, ledger):
            node_ep.send(WireCodec.encode(msg, ref))
            frames["tcp"] = server_ep.channel.recv_bytes()
            got = WireCodec.decode(frames["tcp"], make_model(ref.arch), ref)
            assert got.mask == mask

        self._run_pair(exchange)
        assert frames["tcp"] == lo_frame

    def test_ledger_matches_loopback(self, ref, rng):
        mask = random_mask(ref.arch, rng)
        msg = Message(MsgType.MASK_UPLOAD, 4, node_id=7, mask=mask)

        def exchange(server_ep, node_ep, ledger):
            node_ep.send(WireCodec.encode(msg, ref))
            server_ep.recv(make_model(ref.arch), ref)
            assert ledger.total_bits(direction=UP) == packed_mask_bits(ref.arch)

        self._run_pair(exchange)

    def test_disconnect_raises_transport_error(self, ref):
        def exchange(server_ep, node_ep, ledger):
            node_ep.close()
            with pytest.raises(TransportError):
                server_ep.recv(make_model(ref.arch), ref)

        self._run_pair(exchange)

    @pytest.mark.parametrize(
        "version, tag, match, offset",
        [(2, 5, "unsupported version 2", 4), (1, 9, "unknown message type 9", 5)],
        ids=["bad_version", "unknown_type"],
    )
    def test_bad_header_fails_before_the_body(self, ref, version, tag, match, offset):
        """The header announces a 1 MiB body that never comes: the read fails on
        the header at once instead of waiting out the socket timeout."""

        def exchange(server_ep, node_ep, ledger):
            node_ep.channel.send_bytes(struct.pack("<4sBBII", MAGIC, version, tag, 0, 1 << 20))
            t0 = time.perf_counter()
            with pytest.raises(ProtocolError, match=match) as err:
                server_ep.recv(make_model(ref.arch), ref)
            assert time.perf_counter() - t0 < 1.0
            assert err.value.offset == offset

        self._run_pair(exchange, timeout=3.0)

    @pytest.fixture
    def wide_frames(self, monkeypatch):
        """(down, up, their loopback bytes): a 64-16384-10 weight frame each
        way, 4.9 MB, more than a loopback socket takes in one send.  Starting
        a thread fails the test."""

        def refuse(self):
            raise AssertionError("started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        ref = PruneMask.ones(make_arch(64, 16384, 10))
        model = make_model(ref.arch, seed=2)
        down = WireCodec.encode(Message(MsgType.GLOBAL_WEIGHTS, 1, params=model), ref)
        up = WireCodec.encode(Message(MsgType.WEIGHT_UPLOAD, 1, node_id=7, params=model), ref)
        assert len(down) > 4_000_000

        lo_server, lo_node = loopback_pair(7, BandwidthLedger())
        lo_server.send(down)
        lo_node.send(up)
        return down, up, (lo_node.channel.recv_bytes(), lo_server.channel.recv_bytes())

    def test_multi_mib_frames_cross_on_one_thread(self, wide_frames):
        """A wide frame goes down and back up one link with no thread: each
        read writes the bytes its peer queued.  Both frames equal their
        loopback bytes."""
        down, up, want = wide_frames

        def exchange(server_ep, node_ep, ledger):
            server_ep.send(down)
            got_down = node_ep.channel.recv_bytes()
            node_ep.send(up)
            got_up = server_ep.channel.recv_bytes()
            assert (got_down, got_up) == want
            assert ledger.total_bits() == 8 * (len(down) + len(up) - 14 - 18)

        self._run_pair(exchange)

    @pytest.mark.parametrize("server_reads_first", [True, False], ids=["server_first", "node_first"])
    def test_multi_mib_frames_queued_on_both_ends_cross(self, wide_frames, server_reads_first):
        """Both ends queue a wide frame before either reads: a read writes
        only its peer's queue, so whichever end reads first, both frames
        cross on one thread and equal their loopback bytes."""
        down, up, want = wide_frames

        def exchange(server_ep, node_ep, ledger):
            server_ep.send(down)
            node_ep.send(up)
            assert server_ep.channel._queue and node_ep.channel._queue
            if server_reads_first:
                got_up = server_ep.channel.recv_bytes()
                got_down = node_ep.channel.recv_bytes()
            else:
                got_down = node_ep.channel.recv_bytes()
                got_up = server_ep.channel.recv_bytes()
            assert (got_down, got_up) == want

        self._run_pair(exchange, timeout=5.0)

    def test_silent_peer_times_out(self, ref):
        """A read with nothing queued on its link waits out the timeout, then fails."""

        def exchange(server_ep, node_ep, ledger):
            t0 = time.perf_counter()
            with pytest.raises(TransportError, match="timed out"):
                server_ep.recv(make_model(ref.arch), ref)
            assert 0.3 <= time.perf_counter() - t0 < 3.0

        self._run_pair(exchange, timeout=0.3)

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

    def test_silent_peer_times_out_above_fd_1024(self, ref, high_fds):
        def exchange(server_ep, node_ep, ledger):
            assert server_ep.channel.sock.fileno() > 1024
            with pytest.raises(TransportError, match="tcp recv timed out"):
                server_ep.recv(make_model(ref.arch), ref)

        self._run_pair(exchange, timeout=0.3)

    def test_multi_mib_frames_cross_above_fd_1024(self, wide_frames, high_fds):
        down, up, want = wide_frames

        def exchange(server_ep, node_ep, ledger):
            assert node_ep.channel.sock.fileno() > 1024
            server_ep.send(down)
            got_down = node_ep.channel.recv_bytes()
            node_ep.send(up)
            assert (got_down, server_ep.channel.recv_bytes()) == want

        self._run_pair(exchange)

    def test_connect_refused(self):
        ledger = BandwidthLedger()
        with pytest.raises(TransportError):
            tcp_connect("127.0.0.1", 1, 0, ledger, timeout=0.5)


class TestSessionPreamble:
    def test_preamble_not_booked(self):
        """The 4-byte hello identifies the session and costs nothing."""
        ledger = BandwidthLedger()
        srv = TcpServer("127.0.0.1", 0)
        host, port = srv.address

        eps = {}
        t = threading.Thread(
            target=lambda: eps.setdefault(
                "node", tcp_connect(host, port, 3, ledger, timeout=5.0)
            )
        )
        t.start()
        node_id, server_ep = srv.accept_node(ledger)
        t.join()
        assert node_id == 3
        assert ledger.total_bits() == 0
        server_ep.close()
        eps["node"].close()
        srv.close()

    @pytest.fixture
    def closed(self, monkeypatch):
        """Every ``_SocketChannel`` closed during the test."""
        from mpfl import transport

        closed = []
        close = transport._SocketChannel.close
        monkeypatch.setattr(transport._SocketChannel, "close",
                            lambda self: (closed.append(self), close(self)))
        return closed

    def test_missing_preamble_closes_the_session(self, closed):
        """A peer that hangs up before its hello fails the accept, and the
        accepted socket is closed rather than left to the garbage collector."""
        import socket

        srv = TcpServer("127.0.0.1", 0, timeout=5.0)
        socket.create_connection(srv.address, timeout=5.0).close()
        with pytest.raises(TransportError, match="closed"):
            srv.accept_node(BandwidthLedger())
        srv.close()
        assert len(closed) == 1

    def test_failed_preamble_send_closes_the_socket(self, closed, monkeypatch):
        """A node whose hello cannot be sent fails the connect and closes its socket."""
        from mpfl import transport

        def refuse(self, frame):
            raise TransportError("send failed")

        monkeypatch.setattr(transport._SocketChannel, "send_bytes", refuse)
        srv = TcpServer("127.0.0.1", 0, timeout=5.0)
        with pytest.raises(TransportError, match="send failed"):
            tcp_connect(*srv.address, 0, BandwidthLedger(), timeout=5.0)
        srv.close()
        assert len(closed) == 1
