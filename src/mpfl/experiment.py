"""Experiment orchestration: wiring nodes to the server and recording results.

Four algorithms share one harness:

* ``mpfl``        - masked local training, bit-packed mask voting, then a
                    standard FedAvg fine-tuning phase on the frozen mask;
* ``pruning_fl``  - nodes ship full weights every round, the server averages,
                    scores, prunes, and broadcasts the pruned model;
* ``lth_central`` - every node ships its raw shard once (a ledger charge);
                    training, pruning, and rewinding happen centrally;
* ``fedavg``      - the unpruned reference: ``mpfl`` with an empty schedule.

Each federated protocol is one straight-line loop of lockstep rounds in its
``run_*`` function.  A round is one ``exchange``: the server encodes the
broadcast once and sends that frame on every link, every node takes one
step (decode the broadcast into its own model, train it in place or vote,
upload), and the uploads stream back one at a time in node-id order, split
but not decoded; the loop reduces them as they arrive into the next round's
broadcast.  Mask votes are unpacked into a list; weight uploads are summed
in their wire layout, and the mean is scattered into a model once a round.
The nodes' steps run on one lane per usable core (``_Lanes``): lane 0 is the
run's own process, each other lane a forked worker that trains its nodes'
models in place in shared memory.  The run's process does everything else,
with no thread on either transport: it sends each broadcast on every link,
decodes it into each node's model and sends each worker the round's step;
then, in node-id order, it takes each node's step result (a vote or
nothing), encodes and sends the upload, and reads it.  So every frame and
output is the same for any lane count.
All transmitted bytes flow through the framed wire codec, every send is
booked in the bandwidth ledger, and all results are deterministic functions
of the config seed.
"""

from __future__ import annotations

import copy
import csv
import ctypes
import functools
import io
import itertools
import logging
import mmap
import os
import pickle
import signal
import struct
import sys
import threading
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

import numpy as np

from .config import ExperimentConfig
from .data import (
    Dataset,
    contaminate_labels,
    contaminate_noise,
    load_csv,
    load_idx,
    make_blobs,
    partition_iid,
    train_test_split,
)
from .errors import (ConfigError, ConstraintError, MpflError, NodeError, ProtocolError,
                     TransportError)
from .federation import Node, ParameterServer, fedavg
from .model import ArchSpec, ModelParams, PruneMask, init_params
from .nn import accuracy
from .pruning import apply_mask, compute_mask, weight_scores
from .transport import Endpoint, loopback_pair, tcp_pair
from .wire import (CAT_DATA, DOWN, UP, BandwidthLedger, Message, MsgType, WireCodec, pack_mask,
                   packed_view, scatter_params, unpack_mask)

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

log = logging.getLogger(__name__)

CSV_HEADER = [
    "algorithm",
    "round",
    "global_sparsity",
    "test_accuracy",
    "bits_up_per_node",
    "bits_down_per_node",
    "cumulative_bits",
]


@dataclass
class MetricsRow:
    algorithm: str
    round_idx: int
    global_sparsity: float
    test_accuracy: float
    bits_up_per_node: int
    bits_down_per_node: int
    cumulative_bits: int

    def as_csv(self) -> list[str]:
        return [
            self.algorithm,
            str(self.round_idx),
            f"{self.global_sparsity:.6f}",
            f"{self.test_accuracy:.6f}",
            str(self.bits_up_per_node),
            str(self.bits_down_per_node),
            str(self.cumulative_bits),
        ]


@dataclass
class RunResult:
    config: ExperimentConfig
    rows: list[MetricsRow]
    ledger: BandwidthLedger
    final_model: ModelParams
    final_mask: PruneMask
    mask_history: list[PruneMask] = field(default_factory=list)
    budget_history: list[list[int]] = field(default_factory=list)
    # (round, node, cause) by round, then node; cause "diverged" or "non_finite"
    node_events: list[tuple[int, int, str]] = field(default_factory=list)

    @property
    def final_accuracy(self) -> float:
        return self.rows[-1].test_accuracy

    @property
    def flagged_nodes(self) -> list[int]:
        """The nodes that diverged in a vote round, sorted, from ``node_events``."""
        return sorted({node for _, node, cause in self.node_events if cause == "diverged"})


@dataclass
class Env:
    """Everything derived from the config seed before any algorithm runs."""

    train: Dataset
    test: Dataset
    shards: list[tuple[np.ndarray, np.ndarray]]  # each node's (x, y), by node id
    w0: ModelParams
    node_seeds: list[np.random.SeedSequence]
    central_seed: np.random.SeedSequence


def build_env(cfg: ExperimentConfig) -> Env:
    """Dataset, shards, contamination, and initial weights, all seeded."""
    root = np.random.SeedSequence(cfg.seed)
    data_seq, init_seq, central_seq, cont_seq = root.spawn(4)
    node_seeds = root.spawn(cfg.nodes)

    data_rng = np.random.default_rng(data_seq)
    d = cfg.dataset
    if d.kind == "blobs":
        ds = make_blobs(d.samples, d.features, d.classes, data_rng, d.cluster_std)
    elif d.kind == "csv":
        ds = load_csv(d.path, d.label_column)
    else:
        ds = load_idx(d.features_path, d.labels_path)
    arch = cfg.arch.to_spec()
    if ds.x.shape[1] != arch.in_dim:
        raise ConfigError(
            f"arch.input_dim: loaded {ds.x.shape[1]} features, "
            f"architecture expects {arch.in_dim}"
        )
    if ds.num_classes > arch.num_classes:
        raise ConfigError(
            f"arch.classes: loaded {ds.num_classes} classes, "
            f"architecture has {arch.num_classes} outputs"
        )

    train, test = train_test_split(ds, d.test_fraction, data_rng)
    shards = [(train.x[idx], train.y[idx]) for idx in partition_iid(train, cfg.nodes, data_rng)]
    for entry, seq in zip(cfg.contamination, cont_seq.spawn(max(1, len(cfg.contamination)))):
        rng = np.random.default_rng(seq)
        x, y = shards[entry.node]
        if entry.kind == "noise":
            shards[entry.node] = (contaminate_noise(x, entry.sigma, rng), y)
        else:
            shards[entry.node] = (x, contaminate_labels(y, train.num_classes, rng))

    w0 = init_params(arch, np.random.default_rng(init_seq))
    return Env(train, test, shards, w0, node_seeds, central_seq)


def _make_nodes(cfg: ExperimentConfig, env: Env) -> list[Node]:
    """The run's nodes, each starting from ``env.w0``.  Every node model lives
    in one anonymous shared mapping, so a forked lane worker (see ``_Lanes``)
    trains it in place and the run's process reads it."""
    arrays = env.w0.weights + env.w0.biases
    w0 = np.concatenate([a.ravel() for a in arrays])
    shared = np.frombuffer(mmap.mmap(-1, w0.nbytes * cfg.nodes), np.float64).reshape(cfg.nodes, -1)
    shared[:] = w0
    cuts, layers = np.cumsum([a.size for a in arrays])[:-1], len(env.w0.weights)
    nodes = []
    # nodes never write their shard, so they share the env's arrays
    for i, ((x, y), seq) in enumerate(zip(env.shards, env.node_seeds)):
        views = [v.reshape(a.shape) for v, a in zip(np.split(shared[i], cuts), arrays)]
        model = ModelParams(env.w0.arch, views[:layers], views[layers:])
        nodes.append(Node(i, x, y, model, np.random.default_rng(seq), cfg.training, cfg.pruning))
    return nodes


# --- lockstep rounds ---------------------------------------------------------


@dataclass
class _Round:
    """One lockstep round: a broadcast, then a step on every node.

    ``ref`` is the mask the nodes hold before the broadcast, which encodes it;
    ``mask`` is the global mask after it, which the nodes train under and
    encode their uploads against; ``increment`` is the round's sparsity
    increment; ``upload`` is the type of the nodes' uploads.  A step returns
    the node's mask vote, or None to upload its model.  A round without a
    ``step`` is the last: the nodes take the broadcast and answer nothing.
    """

    idx: int
    down: Message | None
    ref: PruneMask | None
    mask: PruneMask
    step: Callable[[Node, _Round], PruneMask | None] | None
    increment: float = 0.0
    upload: MsgType = MsgType.WEIGHT_UPLOAD


def _node_exchange(node: Node, ep: Endpoint, rnd: _Round) -> None:
    """A node's side of a broadcast: decode it into the node's model."""
    ep.recv(node.model, rnd.ref)


def _upload(node: Node, ep: Endpoint, rnd: _Round, vote: PruneMask | None) -> None:
    """A node's upload, encoded against the round's mask: its vote or its model, by the type."""
    msg = Message(rnd.upload, rnd.idx, node_id=node.node_id, mask=vote, params=node.model)
    ep.send(WireCodec.encode(msg, rnd.mask))


def _vote(node: Node, rnd: _Round) -> PruneMask:
    """Train under the global mask, then vote this node's local mask."""
    return node.local_round(rnd.mask, rnd.increment)


def _sync(node: Node, rnd: _Round) -> None:
    """Nothing: the node uploads its local model untrained; encoding against
    the global mask drops the pruned groups."""


def _train(node: Node, rnd: _Round) -> None:
    """Train under the global mask; the node uploads the weights."""
    node.train(rnd.mask)


def _lane_count(nodes: int) -> int:
    """One lane per usable core, at most one per node.  One lane where
    ``os.fork`` or ``os.sched_getaffinity`` is missing: Windows, and macOS,
    where forking after its BLAS has run is unsafe.  One lane while the caller
    runs threads of its own, since a fork copies only the calling thread and a
    lock another thread holds would stay locked in the worker."""
    if threading.active_count() > 1 or not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return min(nodes, len(os.sched_getaffinity(0)))


class _Lanes:
    """Runs the nodes' steps on L = ``_lane_count`` lanes, node i on lane i % L.

    Lane 0 is the run's own process, which runs a step inline when its result
    is taken.  Each other lane is a worker forked with its nodes before any
    link is made, driven through one ``Pipe``: a round's one request is its
    step's index and the round; the worker runs the step on its nodes in
    order, in place on their models in the shared mapping of ``_make_nodes``,
    and replies for each with the vote, None or the step's exception.  It
    finds the step by the identity of the run's callable in a table taken at
    fork time, so a patched step runs there too.  Each node's rng lives only
    in its lane.  A worker exits at EOF of its pipe, so it never outlives the
    run's process; ``close`` kills and reaps every worker.
    """

    def __init__(self, nodes: list[Node]):
        self._steps = (_vote, _sync, _train)
        self._count = _lane_count(len(nodes))
        self._workers: list[tuple[Connection, int]] = []  # lane k at k - 1: (pipe end, pid)
        try:
            for k in range(1, self._count):
                self._fork(nodes[k::self._count])
        except BaseException:
            self.close()
            raise

    def _fork(self, nodes: list[Node]) -> None:
        from multiprocessing.connection import Pipe  # here: a one-lane run loads none of it

        try:
            ours, theirs = Pipe()
        except OSError as e:  # e.g. no descriptor left for the pipe
            raise TransportError(f"pipe to a lane worker failed: {e}") from e
        failure = None
        try:
            if os.fork() == 0:  # the worker, which must never return into the caller's code
                code = 1
                try:
                    ours.close()
                    for conn, _ in self._workers:
                        conn.close()
                    theirs.send(os.getpid())
                    self._serve(theirs, nodes)
                    code = 0
                finally:
                    os._exit(code)
        except Exception as e:  # refused, or failed in the parent once the child exists
            failure = e
        theirs.close()
        try:  # a worker's first message is its pid, so whatever failed, it is reaped
            self._workers.append((ours, ours.recv()))
        except EOFError as e:  # no worker was made
            ours.close()
            failure = failure or e
        if failure is not None:
            raise TransportError(f"forking a lane worker failed: {failure}") from failure

    def _serve(self, conn: Connection, nodes: list[Node]) -> None:
        """A worker's loop: run each round's step on its nodes and reply for each, until EOF."""
        while True:
            try:
                step, rnd = conn.recv()
            except EOFError:
                return
            for node in nodes:
                try:
                    reply = self._steps[step](node, rnd)
                except Exception as e:
                    try:
                        reply = pickle.loads(pickle.dumps(e))
                    except Exception:  # an error that does not survive pickling
                        reply = RuntimeError(f"{type(e).__name__}: {e}")
                conn.send(reply)

    def start(self, rnd: _Round) -> None:
        """Send every worker the round's step; lane 0's steps wait for ``finish``."""
        request = (self._steps.index(rnd.step), replace(rnd, down=None, ref=None, step=None))
        for conn, _ in self._workers:
            try:
                conn.send(request)
            except OSError:
                pass  # the worker is gone: ``finish`` names its first node

    def finish(self, node: Node, rnd: _Round) -> PruneMask | None:
        """The result of ``node``'s started step; the step's exception is raised here."""
        lane = node.node_id % self._count
        if lane == 0:
            return rnd.step(node, rnd)
        conn, pid = self._workers[lane - 1]
        try:
            reply = conn.recv()
        except (EOFError, OSError):
            raise RuntimeError(f"worker process {pid} ended") from None
        if isinstance(reply, Exception):
            raise reply
        return reply

    def close(self) -> None:
        """Kill and reap every worker, idle or mid-step."""
        for conn, pid in self._workers:
            conn.close()
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):  # reaped already: SIGCHLD ignored
                pass
        self._workers.clear()


def _routed(frame: tuple[MsgType, int, int | None, memoryview], node_id: int,
            rnd: _Round) -> memoryview:
    """The upload's payload, once its routing fields and type match the session's
    node and the round."""
    mtype, round_idx, sender, payload = frame
    if (sender, round_idx, mtype) != (node_id, rnd.idx, rnd.upload):
        raise ProtocolError(
            f"node {node_id} in round {rnd.idx} sent an upload tagged node {sender}, "
            f"round {round_idx}, {mtype.name}; the round expects {rnd.upload.name}"
        )
    return payload


@contextmanager
def _blaming(node_id: int, idx: int) -> Iterator[None]:
    """Raise any failure in the block again naming the node and the round: a
    transport or protocol failure as a copy of its class and offset, any other
    as a NodeError chaining it."""
    try:
        yield
    except (TransportError, ProtocolError) as e:
        named = copy.copy(e)
        named.args = (f"node {node_id} in round {idx}: {e}",)
        raise named from e
    except Exception as e:
        raise NodeError(node_id, idx, e) from e


def _exchange(links: list[tuple[Node, Endpoint, Endpoint]], lanes: _Lanes, rnd: _Round,
              frame: bytes) -> Iterator[tuple[int, memoryview]]:
    """Send ``frame`` on each link in node-id order and decode it, start the
    round's steps, then, in node-id order again, upload each node's step
    result and yield its routed upload as (node, payload); a payload is valid
    until the next is taken.  Any failure in a node's part of the round names
    the node and the round; a misrouted upload names them itself."""
    for node, server, ep in links:
        with _blaming(node.node_id, rnd.idx):
            server.send(frame)
            _node_exchange(node, ep, rnd)
    if rnd.step is None:
        return
    lanes.start(rnd)
    for node, server, ep in links:
        with _blaming(node.node_id, rnd.idx):
            _upload(node, ep, rnd, lanes.finish(node, rnd))
            upload = server.recv_frame(rnd.mask)
        yield node.node_id, _routed(upload, node.node_id, rnd)


@contextmanager
def _sessions(cfg: ExperimentConfig, ledger: BandwidthLedger,
              nodes: list[Node]) -> Iterator[Callable[[_Round], Iterator[tuple[int, memoryview]]]]:
    """Open the server's sessions with the nodes over the configured transport and
    yield the round's exchange, which encodes each broadcast once.  The exchange
    is lazy: a round runs as its uploads are taken, and only once all are taken
    is it done.  The lane workers are forked first, so they hold no link
    socket.  No session needs a thread: both ends of every link live in the
    run's process, made by ``loopback_pair`` or ``tcp_pair``, and no listener
    outlives the making of its link.  The lanes and each endpoint go on one
    stack the moment they exist, so leaving the block, mid-round included,
    reaps every worker and closes everything the sessions opened."""
    with ExitStack() as stack:
        lanes = _Lanes(nodes)
        stack.callback(lanes.close)
        pair = tcp_pair if cfg.transport.kind == "tcp" else loopback_pair
        links = []
        for node in nodes:
            server, ep = pair(node.node_id, ledger)
            stack.callback(server.close)
            stack.callback(ep.close)
            links.append((node, server, ep))
        yield lambda rnd: _exchange(links, lanes, rnd, WireCodec.encode(rnd.down, rnd.ref))


# --- metrics helpers ---------------------------------------------------------


def _rows(cfg: ExperimentConfig, points: list[tuple[int, float, float]],
          ledger: BandwidthLedger) -> list[MetricsRow]:
    """The metrics rows of ``points``; the bits come from the finished ledger."""
    per_round: dict[int, list[int]] = {}  # round -> [up, down] bits
    for e in ledger.entries:
        per_round.setdefault(e.round_idx, [0, 0])[e.direction == DOWN] += e.bits
    rows = []
    for idx, sparsity, acc in points:
        up, down = per_round.get(idx, (0, 0))
        cumulative = sum(sum(bits) for r, bits in per_round.items() if r <= idx)
        rows.append(MetricsRow(cfg.algorithm, idx, sparsity, acc, up // cfg.nodes,
                               down // cfg.nodes, cumulative))
    return rows


def _average_uploads(uploads: Iterable[tuple[int, memoryview]], rnd: _Round,
                     events: list[tuple[int, int, str]]) -> ModelParams:
    """FedAvg of the round's finite weight uploads, summed in their wire layout.

    Each payload is checked against ``rnd.mask`` and added as its float32
    scalars, which are finite exactly when the decoded model is, to a float64
    sum of packed length; the mean is scattered into a model once.  These are
    the adds of decoding each upload and summing the models, in the same order,
    so the bits match, and each pruned group is +0.0 as a decoded one is.  A
    non-finite upload is logged and recorded in ``events`` as the stream meets
    it."""
    def finite() -> Iterator[list[np.ndarray]]:
        for node_id, payload in uploads:
            flat = packed_view(payload, rnd.mask)
            if np.isfinite(flat).all():
                yield [flat]
            else:
                log.warning("round %d: node %d's upload is not finite, left out", rnd.idx, node_id)
                events.append((rnd.idx, node_id, "non_finite"))

    stream = finite()
    first = next(stream, None)
    if first is None:
        raise ConstraintError(f"round {rnd.idx}: no node has a finite model to average")
    (mean,) = fedavg(itertools.chain([first], stream))
    arch = rnd.mask.arch
    avg = ModelParams(arch, [np.zeros(s) for s in arch.shapes], [np.zeros(n) for n in arch.groups])
    scatter_params(mean, rnd.mask, avg)
    return avg


# --- the protocols -----------------------------------------------------------


def run_mpfl(cfg: ExperimentConfig, env: Env) -> RunResult:
    """Mask-voting run; with an empty schedule this is plain FedAvg."""
    schedule = [] if cfg.algorithm == "fedavg" else list(cfg.pruning.schedule)
    ledger = BandwidthLedger()
    nodes = _make_nodes(cfg, env)
    ps = ParameterServer(cfg.consensus, cfg.pruning.min_keep)
    points: list[tuple[int, float, float]] = []
    target = sum(schedule)
    mask_history: list[PruneMask] = []
    events: list[tuple[int, int, str]] = []
    down = Message(MsgType.INIT_WEIGHTS, 0, params=env.w0)
    ref = mask = PruneMask.ones(env.w0.arch)
    idx = 1
    with _sessions(cfg, ledger, nodes) as exchange:
        # vote until the schedule ends or the target is reached
        while idx <= len(schedule) and mask.sparsity() < target - 1e-9:
            rnd = _Round(idx, down, ref, mask, _vote, schedule[idx - 1], MsgType.MASK_UPLOAD)
            votes = []
            for node_id, payload in exchange(rnd):
                with _blaming(node_id, idx):
                    votes.append(unpack_mask(payload, mask.arch))
            new_mask = ps.reduce(votes, mask, rnd.increment)
            # every node has finished its step, so the local models are stable:
            # the would-be aggregate of the finite ones is evaluated for
            # reporting only, and a node whose model is not finite diverged
            diverged = [n.node_id for n in nodes if not n.model.is_finite()]
            events += [(idx, node, "diverged") for node in diverged]
            finite = [n.model for n in nodes if n.node_id not in diverged]
            if not finite:
                raise ConstraintError(f"round {idx}: no node has a finite model to average")
            probe = apply_mask(fedavg(finite), new_mask)
            points.append((idx, new_mask.sparsity(), accuracy(probe, env.test.x, env.test.y)))
            mask_history.append(new_mask.copy())
            down, ref, mask = Message(MsgType.GLOBAL_MASK, idx, mask=new_mask), mask, new_mask
            idx += 1
        # sync the local models under the frozen mask, then fine-tune with FedAvg
        step = _sync
        for idx in range(idx, idx + cfg.final_rounds + 1):
            rnd = _Round(idx, down, ref, mask, step)
            # the uploads carry the groups live in ``mask``; the average is zero in the others
            avg = _average_uploads(exchange(rnd), rnd, events)
            points.append((idx, mask.sparsity(), accuracy(avg, env.test.x, env.test.y)))
            down, ref, step = Message(MsgType.GLOBAL_WEIGHTS, idx + 1, params=avg), mask, _train
    return RunResult(
        cfg,
        _rows(cfg, points, ledger),
        ledger,
        avg,
        mask,
        mask_history=mask_history,
        budget_history=list(ps.budget_history),
        node_events=events,
    )


def run_pruning_fl(cfg: ExperimentConfig, env: Env) -> RunResult:
    """Server-side pruning baseline: full weights travel every round."""
    ledger = BandwidthLedger()
    nodes = _make_nodes(cfg, env)
    points: list[tuple[int, float, float]] = []
    mask_history: list[PruneMask] = []
    events: list[tuple[int, int, str]] = []
    # pruning rounds, then fine-tuning rounds with no increment (at least one round)
    increments = list(cfg.pruning.schedule) + [0.0] * cfg.final_rounds
    down = Message(MsgType.INIT_WEIGHTS, 0, params=env.w0)
    ref = mask = PruneMask.ones(env.w0.arch)
    with _sessions(cfg, ledger, nodes) as exchange:
        for idx, inc in enumerate(increments, start=1):
            rnd = _Round(idx, down, ref, mask, _train)
            avg = _average_uploads(exchange(rnd), rnd, events)
            # the uploads are masked already, so only a round that prunes re-masks
            new_mask = mask
            if inc > 0.0:
                new_mask = compute_mask(weight_scores(avg, cfg.pruning.p), inc, mask,
                                        cfg.pruning.min_keep)
                avg = apply_mask(avg, new_mask)
            points.append((idx, new_mask.sparsity(), accuracy(avg, env.test.x, env.test.y)))
            mask_history.append(new_mask.copy())
            # the broadcast is encoded against the mask the nodes know; the newly
            # pruned groups arrive as explicit zeros
            down, ref, mask = Message(MsgType.GLOBAL_WEIGHTS, idx, params=avg), mask, new_mask
        # the last broadcast ends the run: the nodes take it and answer nothing;
        # draining the exchange runs every node's step
        list(exchange(_Round(down.round_idx, down, ref, mask, None)))
    return RunResult(
        cfg,
        _rows(cfg, points, ledger),
        ledger,
        avg,
        mask,
        mask_history=mask_history,
        node_events=events,
    )


def lth_upload_bits(samples: int, features: int, raw_feature_bits: int) -> int:
    """One-shot raw-dataset upload cost: features plus one 8-bit label per sample."""
    if min(samples, features, raw_feature_bits) < 0:
        raise ConfigError("upload accounting takes non-negative counts")
    return samples * (features * raw_feature_bits + 8)


def charge_lth_upload(
    ledger: BandwidthLedger,
    shard_sizes: list[int],
    features: int,
    raw_feature_bits: int,
) -> None:
    """Book each node's raw shard upload; accounting only, nothing moves."""
    for node_id, n in enumerate(shard_sizes):
        ledger.record(node_id, 0, UP, CAT_DATA, lth_upload_bits(n, features, raw_feature_bits))


def _train_pool(pool: Node, mask: PruneMask, idx: int) -> None:
    """Train the pooled model; a non-finite one fails the round, as in a weight round."""
    pool.train(mask)
    if not pool.model.is_finite():
        raise ConstraintError(f"round {idx}: the pooled model is not finite")


def run_lth_central(cfg: ExperimentConfig, env: Env) -> RunResult:
    """Centralized train / prune / rewind-to-initial over the pooled shards."""
    ledger = BandwidthLedger()
    points: list[tuple[int, float, float]] = []
    charge_lth_upload(
        ledger,
        [len(y) for _, y in env.shards],
        env.train.x.shape[1],
        cfg.dataset.raw_feature_bits,
    )
    # the pool is exactly what the nodes uploaded, contamination included
    x = np.concatenate([x for x, _ in env.shards])
    y = np.concatenate([y for _, y in env.shards])

    # one worker holds the pool and trains it with the central seed
    pool = Node(0, x, y, env.w0.copy(), np.random.default_rng(env.central_seed),
                cfg.training, cfg.pruning)
    mask = PruneMask.ones(env.w0.arch)
    mask_history: list[PruneMask] = []
    for rnd, inc in enumerate(cfg.pruning.schedule, start=1):
        _train_pool(pool, mask, rnd)
        points.append((rnd, mask.sparsity(), accuracy(pool.model, env.test.x, env.test.y)))
        mask = compute_mask(weight_scores(pool.model, cfg.pruning.p), inc, mask,
                            cfg.pruning.min_keep)
        mask_history.append(mask.copy())
        # rewind: surviving groups restart from the initial weights
        pool.model = apply_mask(env.w0, mask)
    pool.training = replace(cfg.training,
                            epochs_per_round=cfg.training.epochs_per_round * max(1, cfg.final_rounds))
    idx = len(cfg.pruning.schedule) + 1
    _train_pool(pool, mask, idx)
    points.append((idx, mask.sparsity(), accuracy(pool.model, env.test.x, env.test.y)))
    return RunResult(cfg, _rows(cfg, points, ledger), ledger, pool.model, mask,
                     mask_history=mask_history)


_RUNNERS = {
    "mpfl": run_mpfl,
    "fedavg": run_mpfl,
    "pruning_fl": run_pruning_fl,
    "lth_central": run_lth_central,
}


@functools.cache
def _blas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The loaded OpenBLAS's own thread-count getter and setter, or None.

    The symbols are looked up through numpy's already-loaded extension
    module, whose symbol scope includes the BLAS it links, so nothing new is
    loaded.  numpy's wheel exports ``scipy_openblas_*_num_threads64_``; plain
    builds export ``openblas_*_num_threads``.  None on another BLAS.
    """
    umath = (sys.modules.get("numpy._core._multiarray_umath")  # numpy 2
             or sys.modules.get("numpy.core._multiarray_umath"))  # numpy 1.x
    if umath is None:
        return None
    lib = ctypes.CDLL(umath.__file__)
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", "", "_64"):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Pin OpenBLAS to one thread for the block, then restore the caller's count.

    A run's GEMMs are at most one training batch tall: OpenBLAS's workers
    would split those small GEMMs, then spin between calls on the cores the
    other lanes train on.  OpenBLAS splits a GEMM over its rows and columns,
    never over the summed dimension, so one thread gives bit-identical
    results.  The count is process-wide, and a lane worker forked in the
    block inherits it.
    """
    blas = _blas_threads()
    if blas is None:
        yield
        return
    get, set_ = blas
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def run(cfg: ExperimentConfig, env: Env | None = None) -> RunResult:
    """Run one config, on ``env`` if given, else on the env built from it."""
    cfg.validate()
    with _one_blas_thread():
        if env is None:
            env = build_env(cfg)
        return _RUNNERS[cfg.algorithm](cfg, env)


def compare(configs: list[ExperimentConfig]) -> tuple[list[RunResult], list[tuple[ExperimentConfig, MpflError]]]:
    """Run each config, isolating per-run failures instead of aborting."""
    results, failures = [], []
    for cfg in configs:
        try:
            results.append(run(cfg))
        except MpflError as e:
            log.error("run %s failed: %s", cfg.algorithm, e)
            failures.append((cfg, e))
    return results, failures


# --- output files ------------------------------------------------------------


def rows_to_csv(rows: list[MetricsRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow(row.as_csv())
    return buf.getvalue()


def write_metrics(rows: list[MetricsRow], path: str | Path) -> None:
    Path(path).write_text(rows_to_csv(rows))


def summary_csv(results: list[RunResult]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["algorithm", "final_accuracy", "final_sparsity", "total_bits",
         "mask_bits", "weight_bits", "data_bits", "bits_per_node"]
    )
    for r in results:
        s = r.ledger.summary()
        writer.writerow(
            [
                r.rows[-1].algorithm,
                f"{r.final_accuracy:.6f}",
                f"{r.final_mask.sparsity():.6f}",
                str(s["total"]),
                str(s["mask"]),
                str(s["weights"]),
                str(s["data"]),
                str(s["total"] // r.config.nodes),
            ]
        )
    return buf.getvalue()


_ARTIFACT_MAGIC = b"MPFM"
_ARTIFACT_VERSION = 1
_ARTIFACT_HEAD = struct.Struct("<4sBH")  # magic, version, dense layer count


def save_model(path: str | Path, params: ModelParams, mask: PruneMask) -> None:
    """Versioned binary artifact: layer dims, float64 weights, packed mask."""
    shapes = params.arch.shapes
    out = bytearray(_ARTIFACT_HEAD.pack(_ARTIFACT_MAGIC, _ARTIFACT_VERSION, len(shapes)))
    for out_dim, in_dim in shapes:
        out += struct.pack("<II", in_dim, out_dim)
    for w, b in zip(params.weights, params.biases):
        out += np.ascontiguousarray(w, dtype="<f8").tobytes()
        out += np.ascontiguousarray(b, dtype="<f8").tobytes()
    out += pack_mask(mask)
    Path(path).write_bytes(bytes(out))


def load_model(path: str | Path) -> tuple[ModelParams, PruneMask]:
    """Read a ``save_model`` artifact.  The header, the layer table and the total
    size are checked before any weight is read; a bad one raises
    ``ProtocolError`` with its byte offset in the artifact, and so does nonzero
    mask padding."""
    buf = Path(path).read_bytes()
    pos = _ARTIFACT_HEAD.size
    if len(buf) < pos:
        raise ProtocolError(f"artifact is {len(buf)} bytes, header needs {pos}", len(buf))
    magic, version, n_layers = _ARTIFACT_HEAD.unpack_from(buf)
    if magic != _ARTIFACT_MAGIC:
        raise ProtocolError(f"bad artifact magic {magic!r}", offset=0)
    if version != _ARTIFACT_VERSION:
        raise ProtocolError(f"unsupported artifact version {version}", offset=4)
    if n_layers < 1:
        raise ProtocolError("artifact has no layers", offset=5)
    if len(buf) < pos + 8 * n_layers:
        raise ProtocolError(f"artifact is {len(buf)} bytes, truncated layer table", len(buf))
    table = struct.unpack_from(f"<{2 * n_layers}I", buf, pos)
    dims = [table[0]]
    for i, (in_dim, out_dim) in enumerate(zip(table[::2], table[1::2])):
        if in_dim != dims[-1] or min(in_dim, out_dim) == 0:
            raise ProtocolError(
                f"layer {i} is {in_dim}x{out_dim}, expected positive dims chaining "
                f"from {dims[-1]}",
                offset=pos + 8 * i,
            )
        dims.append(out_dim)
    pos += 8 * n_layers
    arch = ArchSpec.mlp(dims)
    size = pos + sum(8 * g * s + (g + 7) // 8 for g, s in zip(arch.groups, arch.group_sizes))
    if len(buf) != size:
        raise ProtocolError(f"artifact is {len(buf)} bytes, layout needs {size}", min(len(buf), size))
    weights, biases = [], []
    for out_dim, in_dim in arch.shapes:
        wb = np.frombuffer(buf, "<f8", out_dim * (in_dim + 1), pos).astype(np.float64)
        weights.append(wb[: out_dim * in_dim].reshape(out_dim, in_dim))
        biases.append(wb[out_dim * in_dim :])
        pos += 8 * wb.size
    try:
        mask = unpack_mask(buf[pos:], arch)
    except ProtocolError as e:
        # the size is already checked, so only mask padding is left to fail
        raise ProtocolError("nonzero padding bits in the artifact mask", pos + e.offset) from None
    return ModelParams(arch, weights, biases), mask
