"""End-to-end runs: metrics schema, determinism, artifacts, comparisons."""

import dataclasses
import socket
import struct
import threading
import time

import numpy as np
import pytest

from mpfl import experiment
from mpfl.config import config_from_dict
from mpfl.errors import ConstraintError, MpflError, NodeError, ProtocolError, TransportError
from mpfl.experiment import (
    CSV_HEADER,
    MetricsRow,
    build_env,
    compare,
    load_model,
    rows_to_csv,
    run,
    run_mpfl,
    save_model,
    summary_csv,
    write_metrics,
)
from mpfl.model import PruneMask
from mpfl.pruning import apply_mask
from mpfl.wire import UP, Message, MsgType

from conftest import make_arch, make_model, same_params, zero_group_mask


def small_raw(**extra):
    raw = {
        "seed": 3,
        "nodes": 4,
        "final_rounds": 2,
        "arch": {"input_dim": 10, "hidden": [20], "classes": 3},
        "dataset": {"kind": "blobs", "samples": 360, "features": 10, "classes": 3},
        "training": {"lr": 0.1, "epochs_per_round": 2, "batch_size": 32},
        "pruning": {"schedule": [0.2, 0.2], "min_keep": [1, 3]},
    }
    raw.update(extra)
    return raw


class TestMetricsSchema:
    def test_header_is_frozen(self):
        assert CSV_HEADER == [
            "algorithm",
            "round",
            "global_sparsity",
            "test_accuracy",
            "bits_up_per_node",
            "bits_down_per_node",
            "cumulative_bits",
        ]

    def test_row_formatting(self):
        row = MetricsRow("mpfl", 3, 0.5, 1 / 3, 128, 256, 999)
        assert row.as_csv() == ["mpfl", "3", "0.500000", "0.333333", "128", "256", "999"]

    def test_csv_shape(self):
        res = run(config_from_dict(small_raw()))
        text = rows_to_csv(res.rows)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 1 + len(res.rows)
        assert all(len(l.split(",")) == len(CSV_HEADER) for l in lines)

    def test_write_metrics(self, tmp_path):
        res = run(config_from_dict(small_raw()))
        out = tmp_path / "metrics.csv"
        write_metrics(res.rows, out)
        assert out.read_text() == rows_to_csv(res.rows)


class TestRunShape:
    def test_mpfl_row_phases(self):
        cfg = config_from_dict(small_raw())
        res = run(cfg)
        n_sched = len(cfg.pruning.schedule)
        # schedule rounds, one sync round, then the fine-tuning rounds
        assert len(res.rows) == n_sched + 1 + cfg.final_rounds
        assert [r.round_idx for r in res.rows] == list(range(1, len(res.rows) + 1))
        assert all(r.algorithm == "mpfl" for r in res.rows)

    def test_early_stop_numbers_rounds_contiguously(self):
        """Consensus that reaches the target early ends the vote; the sync and
        fine-tuning rounds follow the last vote round with no gap."""
        raw = small_raw(nodes=8, consensus={"strategy": "histogram", "agreement": 1.0})
        raw["pruning"]["schedule"] = [0.05] * 8
        res = run(config_from_dict(raw))
        votes = len(res.mask_history)
        assert votes < 8
        rounds = [r.round_idx for r in res.rows]
        assert rounds == list(range(1, votes + 2 + res.config.final_rounds))
        sync = res.rows[votes]
        assert sync.bits_up_per_node > 0
        assert sync.bits_up_per_node == sum(
            e.bits for e in res.ledger.entries if (e.direction, e.round_idx) == (UP, sync.round_idx)
        ) // 8
        for row in res.rows:
            assert row.cumulative_bits == sum(
                e.bits for e in res.ledger.entries if e.round_idx <= row.round_idx
            )

    def test_sparsity_is_monotone_nondecreasing(self):
        res = run(config_from_dict(small_raw()))
        sp = [r.global_sparsity for r in res.rows]
        assert sp == sorted(sp)

    def test_mask_history_monotone(self):
        res = run(config_from_dict(small_raw()))
        prev = None
        for m in res.mask_history:
            if prev is not None:
                assert m.issubset(prev)
            prev = m

    def test_final_model_respects_mask(self):
        res = run(config_from_dict(small_raw()))
        assert zero_group_mask(res.final_model).issubset(res.final_mask)

    def test_cumulative_bits_match_ledger(self):
        res = run(config_from_dict(small_raw()))
        assert res.rows[-1].cumulative_bits == res.ledger.total_bits()

    def test_fedavg_alias_rows(self):
        raw = small_raw(algorithm="fedavg")
        raw["pruning"] = {"schedule": []}
        res = run(config_from_dict(raw))
        assert all(r.algorithm == "fedavg" for r in res.rows)
        assert all(r.global_sparsity == 0.0 for r in res.rows)
        assert len(res.rows) == 1 + res.config.final_rounds

    def test_histogram_strategy_runs(self):
        raw = small_raw()
        raw["consensus"] = {"strategy": "histogram", "agreement": 0.75}
        res = run(config_from_dict(raw))
        assert res.final_mask.sparsity() >= 0.0
        sp = [r.global_sparsity for r in res.rows]
        assert sp == sorted(sp)

    def test_gradient_scoring_runs(self, tmp_path, capsys):
        """Groups are scored by their weight norms only: ``mpfl run`` rejects a
        ``pruning.scoring`` key as a config error, with exit code 2."""
        import yaml

        from mpfl.cli import main

        raw = small_raw()
        raw["pruning"]["scoring"] = "gradient"
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert main(["run", "-c", str(path), "-o", str(tmp_path / "out")]) == 2
        assert "pruning.scoring: unknown key" in capsys.readouterr().err


class TestDeterminism:
    def test_byte_identical_reruns(self):
        cfg_a = config_from_dict(small_raw())
        cfg_b = config_from_dict(small_raw())
        a = rows_to_csv(run(cfg_a).rows)
        b = rows_to_csv(run(cfg_b).rows)
        assert a == b

    def test_seed_changes_results(self):
        a = run(config_from_dict(small_raw(seed=3)))
        b = run(config_from_dict(small_raw(seed=4)))
        assert rows_to_csv(a.rows) != rows_to_csv(b.rows)

    def test_shared_env_aligns_algorithms(self):
        """One env reused across algorithms pins the data and init weights."""
        cfg = config_from_dict(small_raw())
        env = build_env(cfg)
        a = run_mpfl(cfg, env)
        b = run_mpfl(cfg, env)
        assert rows_to_csv(a.rows) == rows_to_csv(b.rows)

    def test_tcp_transport_identical_metrics(self, monkeypatch):
        """TCP runs give loopback's metrics and ledger, and start no thread."""

        def refuse(self):
            raise AssertionError("run started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        for algorithm in ("mpfl", "pruning_fl", "fedavg"):
            raw = small_raw(algorithm=algorithm)
            if algorithm == "fedavg":
                raw["pruning"] = {"schedule": []}
            base = run(config_from_dict(raw))
            tcp = run(config_from_dict({**raw, "transport": {"kind": "tcp"}}))
            assert rows_to_csv(base.rows) == rows_to_csv(tcp.rows), algorithm
            assert base.ledger.summary() == tcp.ledger.summary(), algorithm

    def test_loopback_starts_no_thread(self, monkeypatch):
        def refuse(self):
            raise AssertionError("loopback run started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        for algorithm in ("mpfl", "pruning_fl"):
            run(config_from_dict(small_raw(algorithm=algorithm)))


class TestNodeFailure:
    """A node that raises or drops fails the run within the round, naming node and round."""

    @pytest.mark.parametrize("transport", ["loopback", "tcp"])
    @pytest.mark.parametrize("algorithm", ["mpfl", "pruning_fl"])
    def test_node_error_names_node_and_round(self, monkeypatch, transport, algorithm):
        from mpfl.federation import Node

        train = Node.train

        def failing_train(self, mask):
            if self.node_id == 2:
                raise RuntimeError("disk on fire")
            return train(self, mask)

        monkeypatch.setattr(Node, "train", failing_train)
        cfg = config_from_dict(small_raw(algorithm=algorithm, transport={"kind": transport}))
        start = time.monotonic()
        with pytest.raises(NodeError, match="node 2 failed in round 1") as info:
            run(cfg)
        assert time.monotonic() - start < 5.0
        assert (info.value.node_id, info.value.round_idx) == (2, 1)
        assert isinstance(info.value.__cause__, RuntimeError)
        assert "disk on fire" in str(info.value)

    @pytest.mark.parametrize("algorithm", ["mpfl", "pruning_fl"])
    def test_failed_tcp_run_releases_threads_and_port(self, monkeypatch, algorithm):
        from mpfl.federation import Node
        from mpfl.transport import TcpServer

        addresses = []
        listen = TcpServer.__init__

        def recording_listen(self, *args, **kwargs):
            listen(self, *args, **kwargs)
            addresses.append(self.address)

        def failing_train(self, mask):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(TcpServer, "__init__", recording_listen)
        monkeypatch.setattr(Node, "train", failing_train)
        threads = threading.active_count()
        with pytest.raises(NodeError):
            run(config_from_dict(small_raw(algorithm=algorithm, transport={"kind": "tcp"})))
        assert threading.active_count() == threads
        (address,) = addresses
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(address, timeout=1.0).close()

    @pytest.mark.parametrize("transport", ["loopback", "tcp"])
    def test_dropped_peer_names_node_and_round(self, monkeypatch, transport):
        exchange = experiment._node_exchange

        def dropping_exchange(node, ep, rnd):
            if node.node_id == 2:
                ep.close()
                return
            exchange(node, ep, rnd)

        monkeypatch.setattr(experiment, "_node_exchange", dropping_exchange)
        cfg = config_from_dict(small_raw(transport={"kind": transport}))
        start = time.monotonic()
        with pytest.raises(TransportError, match="node 2 in round 1: ") as info:
            run(cfg)
        assert time.monotonic() - start < 5.0
        assert isinstance(info.value.__cause__, TransportError)

    def test_silent_tcp_peer_times_out_naming_node_and_round(self, monkeypatch):
        """A node that keeps its socket open but never uploads fails the round
        once the server's read has waited out the socket timeout."""
        from mpfl.transport import TcpServer

        exchange = experiment._node_exchange
        listen = TcpServer.__init__

        def silent_exchange(node, ep, rnd):
            if node.node_id != 2:
                exchange(node, ep, rnd)

        def short_timeout(self, host, port):
            listen(self, host, port, timeout=0.5)

        monkeypatch.setattr(experiment, "_node_exchange", silent_exchange)
        monkeypatch.setattr(TcpServer, "__init__", short_timeout)
        start = time.monotonic()
        with pytest.raises(TransportError, match="node 2 in round 1: tcp recv timed out"):
            run(config_from_dict(small_raw(transport={"kind": "tcp"})))
        assert 0.5 <= time.monotonic() - start < 5.0

    def test_misnamed_tcp_peer_names_both_ids(self, monkeypatch):
        """A preamble naming the wrong node fails setup with a TransportError,
        which ``compare`` isolates, and leaves no thread or port behind."""
        from mpfl import transport
        from mpfl.transport import TcpServer

        connect = transport.tcp_connect
        addresses = []
        listen = TcpServer.__init__

        def misnamed_connect(host, port, node_id, *args, **kwargs):
            return connect(host, port, 99 if node_id == 0 else node_id, *args, **kwargs)

        def recording_listen(self, *args, **kwargs):
            listen(self, *args, **kwargs)
            addresses.append(self.address)

        monkeypatch.setattr(transport, "tcp_connect", misnamed_connect)
        monkeypatch.setattr(TcpServer, "__init__", recording_listen)
        threads = threading.active_count()
        cfg = config_from_dict(small_raw(transport={"kind": "tcp"}))
        results, failures = compare([cfg])
        assert results == []
        ((_, err),) = failures
        assert isinstance(err, TransportError)
        assert "node 0 connected as node 99" in str(err)
        assert threading.active_count() == threads
        (address,) = addresses
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(address, timeout=1.0).close()

    def test_failed_tcp_accept_closes_every_endpoint(self, monkeypatch):
        """An accept that fails after its node connected fails setup, which
        ``compare`` isolates; every socket made is closed and no thread or
        port is left behind."""
        from mpfl import transport
        from mpfl.transport import TcpServer

        made, closed, addresses, accepts = [], [], [], []
        init, close = transport._SocketChannel.__init__, transport._SocketChannel.close
        listen, accept = TcpServer.__init__, TcpServer.accept_node

        def counting_init(self, *args):
            made.append(self)
            init(self, *args)

        def counting_close(self):
            closed.append(self)
            close(self)

        def recording_listen(self, *args, **kwargs):
            listen(self, *args, **kwargs)
            addresses.append(self.address)

        def failing_accept(self, *args):
            accepts.append(self)
            if len(accepts) == 3:
                raise TransportError("accept refused")
            return accept(self, *args)

        monkeypatch.setattr(transport._SocketChannel, "__init__", counting_init)
        monkeypatch.setattr(transport._SocketChannel, "close", counting_close)
        monkeypatch.setattr(TcpServer, "__init__", recording_listen)
        monkeypatch.setattr(TcpServer, "accept_node", failing_accept)
        threads = threading.active_count()
        results, failures = compare([config_from_dict(small_raw(transport={"kind": "tcp"}))])
        assert results == []
        ((_, err),) = failures
        assert "accept refused" in str(err)
        # nodes 0 and 1 on both sides, and node 2's side of the failed accept
        assert len(made) == 5
        assert {id(c) for c in made} <= {id(c) for c in closed}
        assert threading.active_count() == threads
        (address,) = addresses
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(address, timeout=1.0).close()


class TestWeightPath:
    """Each broadcast is encoded once a round; nodes decode into their own models."""

    @pytest.mark.parametrize("transport", ["loopback", "tcp"])
    def test_one_encode_per_broadcast(self, monkeypatch, transport):
        from mpfl.wire import DOWN, WireCodec

        encode = WireCodec.encode
        calls = []

        def counting_encode(msg, ref_mask):
            calls.append(msg.mtype)
            return encode(msg, ref_mask)

        monkeypatch.setattr(WireCodec, "encode", staticmethod(counting_encode))
        raw = small_raw(algorithm="pruning_fl", transport={"kind": transport})
        res = run(config_from_dict(raw))
        rounds, nodes = len(raw["pruning"]["schedule"]) + raw["final_rounds"], raw["nodes"]
        # a broadcast and an upload per node each round, then the closing broadcast
        assert len(calls) == rounds * (1 + nodes) + 1
        # broadcast r goes out in round r + 1, encoded against the mask round r started from
        arch = res.final_mask.arch
        refs = [PruneMask.ones(arch)] * 2 + res.mask_history[:-1]
        want = [
            (r, n, 32 * sum(k * s for k, s in zip(refs[r].keep_counts(), arch.group_sizes)))
            for r in range(rounds + 1)
            for n in range(nodes)
        ]
        got = sorted((e.round_idx, e.node_id, e.bits) for e in res.ledger.entries
                     if e.direction == DOWN)
        assert got == want

    @pytest.mark.parametrize("transport", ["loopback", "tcp"])
    def test_pruned_group_arrives_as_zero(self, monkeypatch, transport):
        """A group the server prunes was live, and nonzero, in each node's model;
        the next broadcast, decoded into that model, zeroes it."""
        from mpfl.transport import Endpoint

        recv = Endpoint.recv
        seen = []

        def recording_recv(self, into, ref_mask):
            before = into.copy()
            msg = recv(self, into, ref_mask)
            if self.send_direction == UP:
                assert msg.params is into
                seen.append((msg.round_idx, before, into.copy()))
            return msg

        monkeypatch.setattr(Endpoint, "recv", recording_recv)
        res = run(config_from_dict(small_raw(algorithm="pruning_fl", transport={"kind": transport})))
        ones = PruneMask.ones(res.final_mask.arch)
        overwritten = 0
        for r, before, got in seen:
            if r == 0:
                continue
            old = res.mask_history[r - 2] if r >= 2 else ones
            for li, (keep_old, keep_new) in enumerate(zip(old.layers, res.mask_history[r - 1].layers)):
                pruned = keep_old & ~keep_new
                np.testing.assert_array_equal(got.weights[li][pruned], 0.0)
                np.testing.assert_array_equal(got.biases[li][pruned], 0.0)
                overwritten += np.count_nonzero(before.weights[li][pruned])
        assert overwritten > 0

    @pytest.mark.parametrize("transport", ["loopback", "tcp"])
    @pytest.mark.parametrize("algorithm", ["pruning_fl", "mpfl"])
    def test_server_decodes_no_weight_upload(self, monkeypatch, transport, algorithm):
        """The server sums the weight uploads in their wire layout: no upload is
        decoded into a model, while every broadcast still is, by its node."""
        from mpfl.wire import WireCodec

        decode = WireCodec.decode
        decoded = []

        def recording_decode(frame, into, ref_mask):
            decoded.append(WireCodec.split_frame(frame)[0])
            return decode(frame, into, ref_mask)

        monkeypatch.setattr(WireCodec, "decode", staticmethod(recording_decode))
        raw = small_raw(algorithm=algorithm, transport={"kind": transport})
        res = run(config_from_dict(raw))
        uploads = [e for e in res.ledger.entries if e.direction == UP and e.category == "weights"]
        broadcasts = [e for e in res.ledger.entries if e.direction != UP]
        assert uploads
        assert MsgType.WEIGHT_UPLOAD not in decoded
        assert len(decoded) == len(broadcasts)

    def test_reduce_failing_mid_round_leaves_nothing_running(self, monkeypatch):
        """A reduce that raises after taking one upload ends the run with its
        error while the other nodes' uploads (229 kB each) are still unread;
        every socket is closed and no thread or port is left behind."""
        from mpfl import transport
        from mpfl.transport import TcpServer

        made, closed, addresses = [], [], []
        init, close = transport._SocketChannel.__init__, transport._SocketChannel.close
        listen = TcpServer.__init__

        def counting_init(self, *args):
            made.append(self)
            init(self, *args)

        def counting_close(self):
            closed.append(self)
            close(self)

        def recording_listen(self, *args, **kwargs):
            listen(self, *args, **kwargs)
            addresses.append(self.address)

        def failing_fedavg(models):
            next(iter(models))
            raise ConstraintError("reduce gave up")

        monkeypatch.setattr(transport._SocketChannel, "__init__", counting_init)
        monkeypatch.setattr(transport._SocketChannel, "close", counting_close)
        monkeypatch.setattr(TcpServer, "__init__", recording_listen)
        monkeypatch.setattr(experiment, "fedavg", failing_fedavg)
        raw = small_raw(algorithm="pruning_fl", transport={"kind": "tcp"},
                        arch={"input_dim": 10, "hidden": [4096], "classes": 3})
        threads = threading.active_count()
        with pytest.raises(ConstraintError, match="reduce gave up"):
            run(config_from_dict(raw))
        assert len(made) == 2 * raw["nodes"]
        assert {id(c) for c in made} <= {id(c) for c in closed}
        assert threading.active_count() == threads
        (address,) = addresses
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(address, timeout=1.0).close()


class TestUploadRouting:
    """The server checks each upload's routing fields against its session."""

    @pytest.mark.parametrize("transport", ["loopback", "tcp"])
    @pytest.mark.parametrize("field, wrong", [("round_idx", 2), ("node_id", 3)])
    def test_misrouted_upload_rejected(self, monkeypatch, transport, field, wrong):
        vote = experiment._vote

        def misrouted_vote(node, rnd):
            msg = vote(node, rnd)
            return dataclasses.replace(msg, **{field: wrong}) if node.node_id == 2 else msg

        monkeypatch.setattr(experiment, "_vote", misrouted_vote)
        cfg = config_from_dict(small_raw(transport={"kind": transport}))
        with pytest.raises(ProtocolError, match="node 2 in round 1 sent an upload tagged"):
            run(cfg)

    @pytest.mark.parametrize("transport", ["loopback", "tcp"])
    @pytest.mark.parametrize("algorithm, step, sent, expected", [
        ("mpfl", "_vote", "WEIGHT_UPLOAD", "MASK_UPLOAD"),
        ("pruning_fl", "_train", "MASK_UPLOAD", "WEIGHT_UPLOAD"),
    ])
    def test_upload_of_the_wrong_type_rejected(self, monkeypatch, transport, algorithm, step,
                                               sent, expected):
        def wrong_type(node, rnd):
            return Message(MsgType[sent], rnd.idx, node_id=node.node_id, mask=rnd.mask,
                           params=node.model)

        monkeypatch.setattr(experiment, step, wrong_type)
        cfg = config_from_dict(small_raw(algorithm=algorithm, transport={"kind": transport}))
        with pytest.raises(ProtocolError, match=f"node 0 in round 1 sent an upload tagged node 0, "
                                                f"round 1, {sent}; the round expects {expected}"):
            run(cfg)


class TestBlasThreads:
    """A run pins OpenBLAS to one thread and gives the caller's count back."""

    @pytest.fixture
    def blas_threads(self):
        blas = experiment._blas_threads()
        if blas is None:
            pytest.skip("no OpenBLAS thread-count setter is loaded in this process")
        get, set_ = blas
        before = get()
        set_(2)  # a count the pin must change and then restore
        yield get
        set_(before)

    def test_found_when_numpy_links_openblas(self):
        """The tests here skip without a setter, so a lookup that stopped
        finding one would pass them while every GEMM spread over all cores."""
        try:
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except TypeError:
            pytest.skip("numpy before 1.26 reports no build config as dicts")
        if "openblas" not in blas.get("name", "").lower():
            pytest.skip(f"numpy links {blas.get('name')!r}, not OpenBLAS")
        assert experiment._blas_threads() is not None

    @pytest.mark.parametrize("transport", ["loopback", "tcp"])
    def test_node_steps_see_one_thread(self, monkeypatch, blas_threads, transport):
        seen = []
        train = experiment._train

        def recording_train(node, rnd):
            seen.append(blas_threads())
            return train(node, rnd)

        monkeypatch.setattr(experiment, "_train", recording_train)
        run(config_from_dict(small_raw(algorithm="pruning_fl", transport={"kind": transport})))
        assert len(seen) == 4 * 4 and set(seen) == {1}
        assert blas_threads() == 2

    def test_count_restored_after_node_error(self, monkeypatch, blas_threads):
        def failing_train(node, rnd):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(experiment, "_train", failing_train)
        with pytest.raises(NodeError):
            run(config_from_dict(small_raw(algorithm="pruning_fl")))
        assert blas_threads() == 2


class TestContaminationRuns:
    def test_contaminated_run_completes(self):
        raw = small_raw(contamination=[{"node": 0, "kind": "labels"}])
        res = run(config_from_dict(raw))
        assert res.final_accuracy > 0.5

    def test_noise_contamination(self):
        raw = small_raw(contamination=[{"node": 1, "kind": "noise", "sigma": 3.0}])
        res = run(config_from_dict(raw))
        assert np.isfinite(res.final_accuracy)


class TestNonFiniteUploads:
    """Node 0's features carry noise of sigma 1e300, so every upload it trains
    before sending is non-finite; FedAvg leaves each one out."""

    @pytest.mark.parametrize("transport", ["loopback", "tcp"])
    @pytest.mark.parametrize(
        "algorithm, trained_rounds",
        # mpfl: the sync and fine-tuning rounds after two vote rounds; fedavg:
        # the rounds after the first, which syncs the untrained initial weights
        [("mpfl", [3, 4, 5]), ("pruning_fl", [1, 2, 3, 4]), ("fedavg", [2, 3])],
    )
    def test_bad_node_left_out_of_every_fedavg(self, algorithm, trained_rounds, transport):
        raw = small_raw(algorithm=algorithm, transport={"kind": transport},
                        contamination=[{"node": 0, "kind": "noise", "sigma": 1e300}])
        res = run(config_from_dict(raw))
        assert res.final_model.is_finite()
        assert res.rejected_uploads == [(r, 0) for r in trained_rounds]

    # mpfl: the vote-round probe averages the nodes' own models, none finite
    @pytest.mark.parametrize("algorithm, round_idx",
                             [("mpfl", 1), ("pruning_fl", 1), ("fedavg", 2)])
    def test_no_finite_upload_fails_the_round(self, algorithm, round_idx):
        noisy = [{"node": i, "kind": "noise", "sigma": 1e300} for i in range(4)]
        with pytest.raises(ConstraintError, match=f"round {round_idx}:"):
            run(config_from_dict(small_raw(algorithm=algorithm, contamination=noisy)))

    def test_diverged_pooled_model_fails_lth_central(self):
        """lth_central pools node 0's shard too, so its first training diverges."""
        raw = small_raw(algorithm="lth_central",
                        contamination=[{"node": 0, "kind": "noise", "sigma": 1e300}])
        with pytest.raises(ConstraintError, match="round 1: the pooled model is not finite"):
            run(config_from_dict(raw))


class TestCompare:
    def test_multiple_algorithms(self):
        cfgs = [
            config_from_dict(small_raw(algorithm=a))
            for a in ("mpfl", "pruning_fl", "lth_central")
        ]
        results, failures = compare(cfgs)
        assert not failures
        assert [r.rows[0].algorithm for r in results] == ["mpfl", "pruning_fl", "lth_central"]

    def test_failures_are_isolated(self):
        good = config_from_dict(small_raw())
        bad = config_from_dict(small_raw())
        bad.dataset.kind = "csv"
        bad.dataset.path = "/nonexistent/file.csv"
        results, failures = compare([bad, good])
        assert len(results) == 1
        assert len(failures) == 1
        assert failures[0][0] is bad
        assert isinstance(failures[0][1], MpflError)

    def test_summary_csv(self):
        results, _ = compare([config_from_dict(small_raw())])
        text = summary_csv(results)
        lines = text.strip().split("\n")
        assert lines[0].startswith("algorithm,final_accuracy,final_sparsity")
        assert len(lines) == 2
        assert lines[1].startswith("mpfl,")


class TestModelArtifact:
    def test_round_trip(self, tmp_path):
        # no hidden layer, one, and two
        for dims in [(8, 3), (8, 16, 3), (8, 16, 12, 3)]:
            arch = make_arch(*dims)
            # prunes every third group of every layer, the first included
            mask = PruneMask(arch, [np.arange(n) % 3 != 0 for n in arch.groups])
            params = apply_mask(make_model(arch, seed=5), mask)
            path = tmp_path / "model.mpfm"
            save_model(path, params, mask)
            got_params, got_mask = load_model(path)
            assert got_params.arch.dims == dims
            assert same_params(got_params, params), dims
            assert got_mask == mask, dims

    def test_magic_checked(self, tmp_path):
        p = tmp_path / "bad.mpfm"
        p.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ProtocolError):
            load_model(p)

    @pytest.mark.parametrize(
        "corrupt, offset",
        [
            (lambda b: b[:5], 5),
            (lambda b: b[:10], 10),
            (lambda b: b[:30], 30),
            (lambda b: b[:5] + struct.pack("<H", 0) + b[7:], 5),
            (lambda b: b[:11] + struct.pack("<I", 0) + b[15:], 7),
            (lambda b: b[:15] + struct.pack("<I", 9) + b[19:], 15),
            (lambda b: b[:-1] + bytes([b[-1] ^ 0x80]), 560),
        ],
        ids=["cut-header", "cut-layer-table", "cut-weights", "no-layers", "zero-dim", "unchained",
             "mask-padding"],
    )
    def test_bad_artifact_raises_with_offset(self, tmp_path, corrupt, offset):
        """A 4-8-3 artifact: 7 header bytes, then (in, out) u32 pairs at 7 and 15,
        weights from 23, and the two mask bytes at 559 and 560."""
        arch = make_arch(4, 8, 3)
        path = tmp_path / "model.mpfm"
        save_model(path, make_model(arch), PruneMask.ones(arch))
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(ProtocolError) as err:
            load_model(path)
        assert err.value.offset == offset

    def test_saved_run_output(self, tmp_path):
        res = run(config_from_dict(small_raw()))
        path = tmp_path / "final.mpfm"
        save_model(path, res.final_model, res.final_mask)
        params, mask = load_model(path)
        assert mask == res.final_mask
        assert same_params(params, res.final_model)


class TestEnvConsistency:
    def test_loaded_dataset_feature_check(self, tmp_path):
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("a,b,label\n" + "\n".join(f"{i},{i},{i % 2}" for i in range(40)) + "\n")
        raw = small_raw()
        raw["dataset"] = {"kind": "csv", "path": str(csv_path)}
        cfg = config_from_dict(raw)
        with pytest.raises(MpflError, match="features"):
            build_env(cfg)

    def test_csv_dataset_runs_end_to_end(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = ["f0,f1,f2,label"]
        for _ in range(120):
            c = rng.integers(0, 2)
            feats = rng.normal(loc=3.0 * c, size=3)
            rows.append(",".join(f"{v:.5f}" for v in feats) + f",{c}")
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        raw = {
            "seed": 5,
            "nodes": 3,
            "final_rounds": 1,
            "arch": {"input_dim": 3, "hidden": [8], "classes": 2},
            "dataset": {"kind": "csv", "path": str(csv_path)},
            "training": {"lr": 0.2, "epochs_per_round": 2, "batch_size": 16},
            "pruning": {"schedule": [0.25], "min_keep": [1, 2]},
        }
        res = run(config_from_dict(raw))
        assert res.final_accuracy > 0.8
