"""Loopback and TCP endpoints must move identical bytes and book them once."""

import struct
import threading
import time

import numpy as np
import pytest

from mpfl.errors import ProtocolError, TransportError
from mpfl.model import ModelParams, PruneMask
from mpfl.transport import TcpServer, loopback_pair, tcp_connect
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
def codec():
    return WireCodec(make_arch(4, 9, 3))


class TestLoopback:
    def test_mask_roundtrip(self, codec, rng):
        ledger = BandwidthLedger()
        server, node = loopback_pair(0, codec, ledger)
        mask = random_mask(codec.arch, rng)
        node.send(codec.encode(Message(MsgType.MASK_UPLOAD, 2, node_id=0, mask=mask)))
        got = server.recv(make_model(codec.arch))
        assert got.mask == mask
        assert got.round_idx == 2

    def test_weights_roundtrip(self, codec):
        ledger = BandwidthLedger()
        server, node = loopback_pair(1, codec, ledger)
        model = make_model(codec.arch, seed=3)
        server.send(codec.encode(Message(MsgType.INIT_WEIGHTS, 0, params=model)))
        dest = make_model(codec.arch, seed=4)
        got = node.recv(dest)
        assert got.params is dest
        # float32 wire precision rounds the doubles, and nothing else changes
        rounded = ModelParams(
            model.arch,
            [w.astype(np.float32) for w in model.weights],
            [b.astype(np.float32) for b in model.biases],
        )
        assert same_params(got.params, rounded)

    def test_ledger_directions(self, codec, rng):
        ledger = BandwidthLedger()
        server, node = loopback_pair(5, codec, ledger)
        mask = PruneMask.ones(codec.arch)
        node.send(codec.encode(Message(MsgType.MASK_UPLOAD, 1, node_id=5, mask=mask)))
        server.send(codec.encode(Message(MsgType.GLOBAL_MASK, 1, mask=mask)))
        size_bits = packed_mask_bits(codec.arch)
        assert ledger.total_bits(direction=UP) == size_bits
        assert ledger.total_bits(direction=DOWN) == size_bits
        assert ledger.total_bits(node_id=5) == 2 * size_bits
        assert ledger.total_bits(category=CAT_MASK) == 2 * size_bits

    def test_recv_timeout(self, codec):
        ledger = BandwidthLedger()
        server, _ = loopback_pair(0, codec, ledger)
        with pytest.raises(TransportError):
            server.recv(make_model(codec.arch))


class TestTcp:
    def _run_pair(self, codec, exchange, timeout=30.0):
        """Run ``exchange(server_ep, node_ep)`` over a real socket pair."""
        ledger = BandwidthLedger()
        srv = TcpServer("127.0.0.1", 0, timeout=timeout)
        host, port = srv.address
        result = {}

        def connect():
            result["node_ep"] = tcp_connect(host, port, 7, codec, ledger, timeout=5.0)

        t = threading.Thread(target=connect)
        t.start()
        node_id, server_ep = srv.accept_node(codec, ledger)
        t.join()
        assert node_id == 7
        try:
            exchange(server_ep, result["node_ep"], ledger)
        finally:
            server_ep.close()
            result["node_ep"].close()
            srv.close()

    def test_byte_identical_to_loopback(self, codec, rng):
        mask = random_mask(codec.arch, rng)
        msg = Message(MsgType.MASK_UPLOAD, 4, node_id=7, mask=mask)

        lo_ledger = BandwidthLedger()
        lo_server, lo_node = loopback_pair(7, codec, lo_ledger)
        lo_node.send(codec.encode(msg))
        lo_frame = lo_server.channel.recv_bytes()

        frames = {}

        def exchange(server_ep, node_ep, ledger):
            node_ep.send(codec.encode(msg))
            frames["tcp"] = server_ep.channel.recv_bytes()
            got = codec.decode(frames["tcp"], make_model(codec.arch))
            assert got.mask == mask

        self._run_pair(codec, exchange)
        assert frames["tcp"] == lo_frame

    def test_ledger_matches_loopback(self, codec, rng):
        mask = random_mask(codec.arch, rng)
        msg = Message(MsgType.MASK_UPLOAD, 4, node_id=7, mask=mask)

        def exchange(server_ep, node_ep, ledger):
            node_ep.send(codec.encode(msg))
            server_ep.recv(make_model(codec.arch))
            assert ledger.total_bits(direction=UP) == packed_mask_bits(codec.arch)

        self._run_pair(codec, exchange)

    def test_disconnect_raises_transport_error(self, codec):
        def exchange(server_ep, node_ep, ledger):
            node_ep.close()
            with pytest.raises(TransportError):
                server_ep.recv(make_model(codec.arch))

        self._run_pair(codec, exchange)

    @pytest.mark.parametrize(
        "version, tag, match, offset",
        [(2, 5, "unsupported version 2", 4), (1, 9, "unknown message type 9", 5)],
        ids=["bad_version", "unknown_type"],
    )
    def test_bad_header_fails_before_the_body(self, codec, version, tag, match, offset):
        """The header announces a 1 MiB body that never comes: the read fails on
        the header at once instead of waiting out the socket timeout."""

        def exchange(server_ep, node_ep, ledger):
            node_ep.channel.send_bytes(struct.pack("<4sBBII", MAGIC, version, tag, 0, 1 << 20))
            t0 = time.perf_counter()
            with pytest.raises(ProtocolError, match=match) as err:
                server_ep.recv(make_model(codec.arch))
            assert time.perf_counter() - t0 < 1.0
            assert err.value.offset == offset

        self._run_pair(codec, exchange, timeout=3.0)

    def test_connect_refused(self, codec):
        ledger = BandwidthLedger()
        with pytest.raises(TransportError):
            tcp_connect("127.0.0.1", 1, 0, codec, ledger, timeout=0.5)


class TestSessionPreamble:
    def test_preamble_not_booked(self, codec):
        """The 4-byte hello identifies the session and costs nothing."""
        ledger = BandwidthLedger()
        srv = TcpServer("127.0.0.1", 0)
        host, port = srv.address

        eps = {}
        t = threading.Thread(
            target=lambda: eps.setdefault(
                "node", tcp_connect(host, port, 3, codec, ledger, timeout=5.0)
            )
        )
        t.start()
        node_id, server_ep = srv.accept_node(codec, ledger)
        t.join()
        assert node_id == 3
        assert ledger.total_bits() == 0
        server_ep.close()
        eps["node"].close()
        srv.close()

    def test_missing_preamble_closes_the_session(self, codec, monkeypatch):
        """A peer that hangs up before its hello fails the accept, and the
        accepted socket is closed rather than left to the garbage collector."""
        import socket

        from mpfl import transport

        closed = []
        close = transport._SocketChannel.close
        monkeypatch.setattr(transport._SocketChannel, "close",
                            lambda self: (closed.append(self), close(self)))
        srv = TcpServer("127.0.0.1", 0, timeout=5.0)
        socket.create_connection(srv.address, timeout=5.0).close()
        with pytest.raises(TransportError, match="closed"):
            srv.accept_node(codec, BandwidthLedger())
        srv.close()
        assert len(closed) == 1
