"""End-to-end runs: metrics schema, determinism, artifacts, comparisons."""

import dataclasses
import errno
import os
import socket
import struct
import threading
import time

import numpy as np
import pytest

from mpfl import experiment
from mpfl import transport as mpfl_transport
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
from mpfl.transport import Endpoint, TcpServer
from mpfl.wire import UP, Message, MsgType, WireCodec, pack_mask

from conftest import assert_refused, make_arch, make_model, same_params, zero_group_mask


class Two(Exception):
    """An error that pickles but does not unpickle: it keeps one arg of its two."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


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


class TestSessions:
    """While its rounds run, a run holds its links' sockets and nothing more."""

    @pytest.mark.parametrize("transport", ["loopback", "tcp"])
    def test_rounds_run_without_a_listening_port(self, monkeypatch, tcp_listeners, transport):
        """Seen from node 9's step in round 1: the process holds two descriptors
        per node and one pipe end per lane worker more than before the run
        (checked where ``/proc/self/fd`` exists), and over TCP every listener
        the run made refuses a connection."""
        has_fds = os.path.isdir("/proc/self/fd")
        exchange = experiment._node_exchange
        held = []

        def probing_exchange(node, ep, rnd):
            if (node.node_id, rnd.idx) == (9, 1):
                held.append(len(os.listdir("/proc/self/fd")) if has_fds else None)
                assert_refused(tcp_listeners)
            exchange(node, ep, rnd)

        monkeypatch.setattr(experiment, "_node_exchange", probing_exchange)
        raw = small_raw(nodes=10, transport={"kind": transport})
        before = len(os.listdir("/proc/self/fd")) if has_fds else None
        run(config_from_dict(raw))
        assert len(tcp_listeners) == (raw["nodes"] if transport == "tcp" else 0)
        (during,) = held
        if has_fds:
            workers = experiment._lane_count(raw["nodes"]) - 1
            assert during - before == 2 * raw["nodes"] + workers


# where either is missing a run has one lane, whatever the cores
forks = pytest.mark.skipif(not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
                           reason="a run has one lane on this platform")


def usable_cores(monkeypatch, count: int) -> None:
    """The run sees ``count`` usable cores, where it can use more than one."""
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


class TestLanes:
    """Node steps spread over one lane per usable core give the outputs of one
    lane, and a run leaves no worker behind."""

    VARIANTS = {
        "mpfl": {},
        "pruning_fl": {"algorithm": "pruning_fl"},
        "fedavg": {"algorithm": "fedavg", "pruning": {"schedule": []}},
        # node 1 diverges in every vote round and uploads non-finite weights after
        "mpfl-diverging": {"contamination": [{"node": 1, "kind": "noise", "sigma": 1e300}]},
    }

    @staticmethod
    def outputs(res, path) -> tuple:
        save_model(path, res.final_model, res.final_mask)
        return (rows_to_csv(res.rows), res.ledger.summary(),
                sorted((e.round_idx, e.node_id, e.direction, e.category, e.bits)
                       for e in res.ledger.entries),
                path.read_bytes(), [pack_mask(m) for m in res.mask_history], res.node_events)

    @pytest.mark.parametrize("transport", ["loopback", "tcp"])
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_outputs_do_not_depend_on_the_lanes(self, monkeypatch, tmp_path, variant, transport):
        raw = small_raw(transport={"kind": transport}, **self.VARIANTS[variant])
        got = {}
        for cores in (1, 2, 3, raw["nodes"] + 3):
            usable_cores(monkeypatch, cores)
            got[cores] = self.outputs(run(config_from_dict(raw)), tmp_path / f"{cores}.bin")
        assert all(out == got[1] for out in got.values())

    @forks
    @pytest.mark.parametrize("transport", ["loopback", "tcp"])
    def test_worker_that_dies_names_node_and_round(self, monkeypatch, transport):
        """A worker that exits in node 1's first step fails the run at once with
        a NodeError naming node 1 and round 1, and leaves no child process
        (the autouse fixture) and no descriptor behind."""
        parent, train = os.getpid(), experiment._train

        def dying_train(node, rnd):
            if os.getpid() != parent:
                os._exit(1)
            return train(node, rnd)

        monkeypatch.setattr(experiment, "_train", dying_train)
        usable_cores(monkeypatch, 2)
        has_fds = os.path.isdir("/proc/self/fd")
        before = len(os.listdir("/proc/self/fd")) if has_fds else None
        start = time.monotonic()
        with pytest.raises(NodeError, match="node 1 failed in round 1: RuntimeError: worker "
                                            "process [0-9]+ ended") as info:
            run(config_from_dict(small_raw(algorithm="pruning_fl", transport={"kind": transport})))
        assert time.monotonic() - start < 5.0
        assert (info.value.node_id, info.value.round_idx) == (1, 1)
        if has_fds:
            assert len(os.listdir("/proc/self/fd")) == before

    @forks
    def test_failed_fork_is_isolated_and_closes_every_pipe(self, monkeypatch):
        """A worker the kernel refuses (here the second of three) fails the run's
        setup as a TransportError, which ``compare`` isolates; the worker
        forked before it is reaped (the autouse fixture) and no pipe is left."""
        calls = []
        fork = os.fork

        def refusing_fork():
            calls.append(None)
            if len(calls) == 2:
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", refusing_fork)
        usable_cores(monkeypatch, 3)
        has_fds = os.path.isdir("/proc/self/fd")
        before = len(os.listdir("/proc/self/fd")) if has_fds else None
        results, failures = compare([config_from_dict(small_raw())])
        assert results == []
        ((_, err),) = failures
        assert isinstance(err, TransportError)
        assert "forking a lane worker failed: [Errno 11]" in str(err)
        if has_fds:
            assert len(os.listdir("/proc/self/fd")) == before

    @forks
    def test_fork_that_fails_after_forking_is_isolated_and_reaped(self, monkeypatch):
        """A fork that raises in the run's process after the child exists (as
        CPython 3.12's DeprecationWarning in a multi-threaded process does, and
        here the second of three) fails setup as a TransportError, which
        ``compare`` isolates; both children are reaped (the autouse fixture)
        and no pipe is left."""
        calls = []
        fork = os.fork

        def warning_fork():
            pid = fork()
            calls.append(pid)
            if pid and len(calls) == 2:
                raise DeprecationWarning("This process is multi-threaded, use of fork() "
                                         "may lead to deadlocks in the child.")
            return pid

        monkeypatch.setattr(os, "fork", warning_fork)
        usable_cores(monkeypatch, 3)
        has_fds = os.path.isdir("/proc/self/fd")
        before = len(os.listdir("/proc/self/fd")) if has_fds else None
        results, failures = compare([config_from_dict(small_raw())])
        assert results == [] and len(calls) == 2
        ((_, err),) = failures
        assert isinstance(err, TransportError)
        assert "forking a lane worker failed: This process is multi-threaded" in str(err)
        assert isinstance(err.__cause__, DeprecationWarning)
        if has_fds:
            assert len(os.listdir("/proc/self/fd")) == before

    @forks
    def test_caller_with_a_thread_runs_one_lane(self, monkeypatch, tmp_path):
        """While the caller runs a thread of its own, every step runs in the
        run's process, since a fork would copy only the calling thread, and
        the outputs are those of one lane."""
        seen = tmp_path / "seen"
        train = experiment._train

        def recording_train(node, rnd):
            with open(seen, "a") as f:
                f.write(f"{os.getpid()}\n")
            return train(node, rnd)

        monkeypatch.setattr(experiment, "_train", recording_train)
        raw = small_raw(algorithm="pruning_fl")
        usable_cores(monkeypatch, 3)
        assert experiment._lane_count(raw["nodes"]) == 3
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            threaded = self.outputs(run(config_from_dict(raw)), tmp_path / "threaded.bin")
        finally:
            stop.set()
            thread.join()
        assert seen.read_text().split() == [str(os.getpid())] * 4 * 4
        usable_cores(monkeypatch, 1)
        assert threaded == self.outputs(run(config_from_dict(raw)), tmp_path / "one.bin")

    @staticmethod
    def fail_node_1_vote(monkeypatch, error: Exception, stand_in: str) -> None:
        """Node 1's vote, on the worker of two lanes, raises ``error``: the run
        fails naming node 1 and round 1, with the stand-in RuntimeError."""
        def failing_vote(node, rnd):
            if node.node_id == 1:
                raise error
            return rnd.mask

        monkeypatch.setattr(experiment, "_vote", failing_vote)
        usable_cores(monkeypatch, 2)
        with pytest.raises(NodeError, match=f"node 1 failed in round 1: RuntimeError: {stand_in}$"):
            run(config_from_dict(small_raw()))

    @forks
    def test_unpicklable_step_error_names_node_and_round(self, monkeypatch):
        """A worker's step error that does not pickle comes back as a
        RuntimeError carrying its class name and message."""
        class Unpicklable(Exception):
            pass

        self.fail_node_1_vote(monkeypatch, Unpicklable("disk on fire"), "Unpicklable: disk on fire")

    @forks
    def test_step_error_that_does_not_unpickle_names_node_and_round(self, monkeypatch):
        """So does one that pickles but fails to unpickle, rather than the
        TypeError its unpickling raises."""
        self.fail_node_1_vote(monkeypatch, Two("disk", "fire"), "Two: disk and fire")

    @forks
    @pytest.mark.parametrize("algorithm", ["mpfl", "pruning_fl"])
    def test_one_request_per_worker_per_round(self, monkeypatch, algorithm):
        """On three lanes of six nodes, the run's process sends each of its two
        workers one request a round with a step, however many nodes a worker
        has; every such round gives one metrics row."""
        from multiprocessing.connection import Connection

        parent, send = os.getpid(), Connection.send
        sent = []

        def counting_send(self, obj):
            if os.getpid() == parent:
                sent.append(obj)
            return send(self, obj)

        monkeypatch.setattr(Connection, "send", counting_send)
        usable_cores(monkeypatch, 3)
        res = run(config_from_dict(small_raw(nodes=6, algorithm=algorithm)))
        assert len(sent) == 2 * len(res.rows)


@pytest.fixture
def endpoints(monkeypatch):
    """(made, closed): every ``Endpoint`` made and every one closed during the test."""
    made, closed = [], []
    init, close = Endpoint.__init__, Endpoint.close

    def counting_init(self, *args):
        made.append(self)
        init(self, *args)

    def counting_close(self):
        closed.append(self)
        close(self)

    monkeypatch.setattr(Endpoint, "__init__", counting_init)
    monkeypatch.setattr(Endpoint, "close", counting_close)
    return made, closed


class TestNodeFailure:
    """A node that raises or drops fails the run within the round, naming node and round.

    Tests that loop over ``LANES`` fail node 2 of 4 both inline, on one lane,
    and in a lane worker, on three."""

    LANES = (1, 3)

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
        for cores in self.LANES:
            usable_cores(monkeypatch, cores)
            start = time.monotonic()
            with pytest.raises(NodeError, match="node 2 failed in round 1") as info:
                run(cfg)
            assert time.monotonic() - start < 5.0
            assert (info.value.node_id, info.value.round_idx) == (2, 1)
            assert isinstance(info.value.__cause__, RuntimeError)
            assert "disk on fire" in str(info.value)

    @pytest.mark.parametrize("algorithm", ["mpfl", "pruning_fl"])
    def test_failed_tcp_run_releases_threads_and_port(self, monkeypatch, tcp_listeners,
                                                      algorithm):
        from mpfl.federation import Node

        def failing_train(self, mask):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(Node, "train", failing_train)
        raw = small_raw(algorithm=algorithm, transport={"kind": "tcp"})
        threads = threading.active_count()
        with pytest.raises(NodeError):
            run(config_from_dict(raw))
        assert threading.active_count() == threads
        # one listener per link
        assert len(tcp_listeners) == raw["nodes"]
        assert_refused(tcp_listeners)

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
        for cores in self.LANES:
            usable_cores(monkeypatch, cores)
            start = time.monotonic()
            with pytest.raises(TransportError, match="node 2 in round 1: ") as info:
                run(cfg)
            assert time.monotonic() - start < 5.0
            assert isinstance(info.value.__cause__, TransportError)

    @pytest.mark.parametrize("transport", ["loopback", "tcp"])
    def test_silent_peer_times_out_naming_node_and_round(self, monkeypatch, transport):
        """A node that keeps its socket open but never uploads fails the round
        once the server's read has waited out the socket timeout, on either
        transport."""
        upload = experiment._upload

        def silent_upload(node, ep, rnd, vote):
            if node.node_id != 2:
                upload(node, ep, rnd, vote)

        monkeypatch.setattr(experiment, "_upload", silent_upload)
        monkeypatch.setattr(mpfl_transport, "_TIMEOUT", 0.5)
        for cores in self.LANES:
            usable_cores(monkeypatch, cores)
            start = time.monotonic()
            with pytest.raises(TransportError, match="node 2 in round 1: recv timed out"):
                run(config_from_dict(small_raw(transport={"kind": transport})))
            assert 0.5 <= time.monotonic() - start < 5.0

    @pytest.mark.parametrize("transport", ["loopback", "tcp"])
    @pytest.mark.parametrize("corrupt, match, offset", [
        (lambda f: b"XXXX" + f[4:], r"bad magic b'XXXX' \(offset 0\)", 0),
        # the last byte holds the 3 output groups' mask bits; bit 7 is padding
        (lambda f: f[:-1] + bytes([f[-1] | 0x80]), r"nonzero padding bits in mask payload", 3),
    ], ids=["bad_magic", "mask_padding"])
    def test_corrupt_upload_names_node_and_round(self, monkeypatch, transport, corrupt, match,
                                                 offset):
        """A node-2 vote corrupted on its way up fails the run with a
        ProtocolError of the same offset that names the node and the round,
        whether the read or the vote's unpacking finds it.  The frame is
        corrupted below ``Endpoint.send``, in the socket write, which takes a
        vote frame in one piece on either transport."""
        send = socket.socket.send

        def corrupting_send(self, data, *flags):
            if WireCodec.split_frame(data)[2] == 2:
                data = corrupt(bytes(data))
            return send(self, data, *flags)

        monkeypatch.setattr(socket.socket, "send", corrupting_send)
        with pytest.raises(ProtocolError, match=f"^node 2 in round 1: {match}") as err:
            run(config_from_dict(small_raw(transport={"kind": transport})))
        assert err.value.offset == offset
        assert isinstance(err.value.__cause__, ProtocolError)

    def test_failed_socket_pair_is_isolated_and_closes_every_socket(self, monkeypatch):
        """A socket pair the kernel refuses (here, out of descriptors) fails the
        run's setup as a TransportError, which ``compare`` isolates; the pairs
        made before it are closed.  On one lane the third pair refused is node
        2's link; on three, the first is the pipe to the first lane worker,
        which ``multiprocessing.Pipe`` makes as a socket pair."""
        socketpair = socket.socketpair
        for cores, refused, match in ((1, 2, "socket pair failed"),
                                      (3, 0, "pipe to a lane worker failed")):
            made = []

            def refusing_socketpair(*args):
                if len(made) == 2 * refused:
                    raise OSError(errno.EMFILE, "Too many open files")
                made.extend(socketpair(*args))
                return made[-2], made[-1]

            monkeypatch.setattr(socket, "socketpair", refusing_socketpair)
            usable_cores(monkeypatch, cores)
            if experiment._lane_count(4) != cores:
                continue  # no lane worker on this platform
            results, failures = compare([config_from_dict(small_raw())])
            assert results == []
            ((_, err),) = failures
            assert isinstance(err, TransportError)
            assert f"{match}: [Errno 24] Too many open files" in str(err)
            assert len(made) == 2 * refused and all(sock.fileno() == -1 for sock in made)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
    @pytest.mark.parametrize("transport", ["loopback", "tcp"])
    @pytest.mark.parametrize("fails", [False, True], ids=["completed", "node_error"])
    def test_run_leaves_no_descriptor_open(self, monkeypatch, transport, fails):
        """A run, completed or failed by a node, closes every descriptor it opened."""
        from mpfl.federation import Node

        if fails:
            def failing_train(self, mask):
                raise RuntimeError("disk on fire")

            monkeypatch.setattr(Node, "train", failing_train)
        cfg = config_from_dict(small_raw(transport={"kind": transport}))
        before = len(os.listdir("/proc/self/fd"))
        if fails:
            with pytest.raises(NodeError):
                run(cfg)
        else:
            run(cfg)
        assert len(os.listdir("/proc/self/fd")) == before

    def test_stranger_tcp_peer_names_both_addresses(self, monkeypatch):
        """A stranger that connects to the listener first and sends node 0's
        id is refused: setup fails with a TransportError naming its address
        and node 0's, which ``compare`` isolates, and leaves no thread or port
        behind."""
        addresses, strangers = [], []
        listen = TcpServer.__init__

        def stranger_first_listen(self, *args, **kwargs):
            listen(self, *args, **kwargs)
            addresses.append(self.address)
            strangers.append(socket.create_connection(self.address, timeout=5.0))
            strangers[-1].sendall(struct.pack("<I", 0))

        monkeypatch.setattr(TcpServer, "__init__", stranger_first_listen)
        threads = threading.active_count()
        cfg = config_from_dict(small_raw(transport={"kind": "tcp"}))
        results, failures = compare([cfg])
        assert results == []
        ((_, err),) = failures
        (stranger,) = strangers
        host, port = stranger.getsockname()
        stranger.close()
        assert isinstance(err, TransportError)
        assert f"refused {host}:{port}: node 0 connected from 127.0.0.1:" in str(err)
        assert threading.active_count() == threads
        (address,) = addresses
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(address, timeout=1.0).close()

    def test_failed_tcp_accept_closes_every_endpoint(self, monkeypatch, endpoints,
                                                     tcp_listeners):
        """An accept that fails after its node connected fails setup, which
        ``compare`` isolates; every socket made is closed and no thread or
        port is left behind."""
        made, closed = endpoints
        accepts = []
        accept = TcpServer.accept_node

        def failing_accept(self, *args):
            accepts.append(self)
            if len(accepts) == 3:
                raise TransportError("accept refused")
            return accept(self, *args)

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
        # one listener per link tried, node 2's included
        assert len(tcp_listeners) == 3
        assert_refused(tcp_listeners)


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

    def test_reduce_failing_mid_round_leaves_nothing_running(self, monkeypatch, endpoints,
                                                              tcp_listeners):
        """A reduce that raises after taking one upload ends the run with its
        error while the other nodes' uploads (229 kB each) are still unread;
        every socket is closed and no thread or port is left behind."""
        made, closed = endpoints

        def failing_fedavg(models):
            next(iter(models))
            raise ConstraintError("reduce gave up")

        monkeypatch.setattr(experiment, "fedavg", failing_fedavg)
        raw = small_raw(algorithm="pruning_fl", transport={"kind": "tcp"},
                        arch={"input_dim": 10, "hidden": [4096], "classes": 3})
        threads = threading.active_count()
        with pytest.raises(ConstraintError, match="reduce gave up"):
            run(config_from_dict(raw))
        assert len(made) == 2 * raw["nodes"]
        assert {id(c) for c in made} <= {id(c) for c in closed}
        assert threading.active_count() == threads
        assert len(tcp_listeners) == raw["nodes"]
        assert_refused(tcp_listeners)


class TestUploadRouting:
    """The server checks each upload's routing fields against its session."""

    @pytest.mark.parametrize("transport", ["loopback", "tcp"])
    @pytest.mark.parametrize("field, wrong", [("round_idx", 2), ("node_id", 3)])
    def test_misrouted_upload_rejected(self, monkeypatch, transport, field, wrong):
        upload = experiment._upload

        def misrouted_upload(node, ep, rnd, vote):
            if node.node_id != 2:
                return upload(node, ep, rnd, vote)
            msg = Message(rnd.upload, rnd.idx, node_id=2, mask=vote)
            ep.send(WireCodec.encode(dataclasses.replace(msg, **{field: wrong}), rnd.mask))

        monkeypatch.setattr(experiment, "_upload", misrouted_upload)
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
        def wrong_type(node, ep, rnd, vote):
            assert rnd.step is getattr(experiment, step)  # the round whose upload is mistyped
            msg = Message(MsgType[sent], rnd.idx, node_id=node.node_id, mask=rnd.mask,
                          params=node.model)
            ep.send(WireCodec.encode(msg, rnd.mask))

        monkeypatch.setattr(experiment, "_upload", wrong_type)
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
    def test_node_steps_see_one_thread(self, monkeypatch, tmp_path, blas_threads, transport):
        """Every step sees one thread, in the run's process and in its lane
        worker; the steps write what they see to a file, since a worker's
        memory is its own."""
        seen = tmp_path / "seen"
        train = experiment._train

        def recording_train(node, rnd):
            with open(seen, "a") as f:
                f.write(f"{os.getpid()} {blas_threads()}\n")
            return train(node, rnd)

        monkeypatch.setattr(experiment, "_train", recording_train)
        usable_cores(monkeypatch, 2)
        run(config_from_dict(small_raw(algorithm="pruning_fl", transport={"kind": transport})))
        steps = [line.split() for line in seen.read_text().splitlines()]
        assert len(steps) == 4 * 4 and {count for _, count in steps} == {"1"}
        if experiment._lane_count(4) > 1:
            assert {pid for pid, _ in steps} - {str(os.getpid())}, "no step ran in a worker"
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
    """Node 0's features carry noise of sigma 1e300, so it diverges in every
    vote round and every upload it trains before sending is non-finite;
    FedAvg leaves each one out."""

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
        diverged_rounds = [1, 2] if algorithm == "mpfl" else []  # the vote rounds
        assert res.node_events == ([(r, 0, "diverged") for r in diverged_rounds]
                                   + [(r, 0, "non_finite") for r in trained_rounds])
        assert res.flagged_nodes == ([0] if diverged_rounds else [])

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
        with pytest.raises(MpflError, match="arch.input_dim: loaded 2 features"):
            build_env(cfg)

    def test_loaded_dataset_class_check(self, tmp_path):
        """A CSV with more classes than the architecture has outputs names
        ``arch.classes``, the key to fix; ``dataset.classes`` is not read."""
        csv_path = tmp_path / "d.csv"
        rows = (f"{i}," * 10 + f"{i % 4}" for i in range(40))
        csv_path.write_text(",".join(f"f{j}" for j in range(10)) + ",label\n" + "\n".join(rows) + "\n")
        raw = small_raw()
        raw["dataset"] = {"kind": "csv", "path": str(csv_path)}
        with pytest.raises(MpflError, match="arch.classes: loaded 4 classes"):
            build_env(config_from_dict(raw))

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

    def test_idx_dataset_runs_end_to_end(self, tmp_path):
        """An IDX pair (uint8 images, uint8 labels) goes through ``build_env``
        and a whole run."""
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, size=120).astype(np.uint8)
        x = np.clip(rng.normal(100.0 + 60.0 * y[:, None, None], 20.0, size=(120, 2, 2)), 0, 255)
        paths = {}
        for key, arr in (("features_path", x.astype(np.uint8)), ("labels_path", y)):
            paths[key] = tmp_path / f"{key}.idx"
            head = struct.pack(">HBB", 0, 0x08, arr.ndim) + struct.pack(f">{arr.ndim}I", *arr.shape)
            paths[key].write_bytes(head + arr.tobytes())
        raw = {
            "seed": 5,
            "nodes": 3,
            "final_rounds": 1,
            "arch": {"input_dim": 4, "hidden": [8], "classes": 2},
            "dataset": {"kind": "idx", **{k: str(v) for k, v in paths.items()}},
            "training": {"lr": 0.2, "epochs_per_round": 2, "batch_size": 16},
            "pruning": {"schedule": [0.25], "min_keep": [1, 2]},
        }
        res = run(config_from_dict(raw))
        assert res.final_accuracy > 0.8
