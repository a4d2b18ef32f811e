"""Span tracer for the benchmark's traced run, and the per-layer split.

The tracer wraps the public functions and methods of each ``mpfl`` layer from
outside the package.  ``from .nn import train_sgd`` copies a name into the
importing module, so a function is patched in every ``mpfl`` module that binds
it; a method is patched on its class.  Targets that do not exist are skipped,
so the tracer keeps working when a layer drops a function.  Spans stay in
memory until the run ends; leaving the ``Tracer`` context restores every
original.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import math
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

MODULES = ("config", "data", "nn", "pruning", "federation", "wire", "transport", "experiment")

# span name -> (defining module, function)
FUNCTIONS = {
    "data.build_env": ("experiment", "build_env"),
    "experiment.run": ("experiment", "run"),
    "nn.train_sgd": ("nn", "train_sgd"),
    "nn.forward": ("nn", "forward"),
    "nn.backward": ("nn", "backward"),
    "nn.sgd_step": ("nn", "sgd_step"),
    "nn.accuracy": ("nn", "accuracy"),
    "pruning.apply_mask": ("pruning", "apply_mask"),
    "pruning.weight_scores": ("pruning", "weight_scores"),
    "pruning.gradient_scores": ("pruning", "gradient_scores"),
    "pruning.compute_mask": ("pruning", "compute_mask"),
    "federation.fedavg": ("federation", "fedavg"),
    "transport.tcp_connect": ("transport", "tcp_connect"),
}

# span name -> (defining module, class, method)
METHODS = {
    "config.validate": ("config", "ExperimentConfig", "validate"),
    "federation.reduce": ("federation", "ParameterServer", "reduce"),
    "federation.local_round": ("federation", "Node", "local_round"),
    "wire.encode": ("wire", "WireCodec", "encode"),
    "wire.decode": ("wire", "WireCodec", "decode"),
    "transport.send": ("transport", "Endpoint", "send"),
    "transport.recv": ("transport", "Endpoint", "recv"),
    "transport.accept": ("transport", "TcpServer", "accept_node"),
}


def _train_note(call: dict, result) -> tuple[int, int, int]:
    """(SGD steps, live hidden units x steps, hidden units x steps) of one call."""
    steps = call["epochs"] * math.ceil(len(call["x"]) / call["batch_size"])
    units = sum(w.shape[0] for w in call["model"].weights[:-1])
    mask = call.get("mask")
    live = units if mask is None else sum(int(bits.sum()) for bits in mask.layers[:-1])
    return steps, live * steps, units * steps


# span name -> detail taken from the bound arguments of a call that returned
NOTES = {
    "nn.train_sgd": _train_note,
    "wire.encode": lambda call, frame: len(frame),
    "transport.recv": lambda call, msg: call["self"].send_direction,
}


@dataclass(slots=True)
class Span:
    sid: int
    name: str
    parent: int  # sid of the enclosing span on the same thread, -1 at a root
    thread: int
    threads: int  # live Python threads when the span opened
    round_idx: int | None
    start: float  # time.perf_counter() seconds
    end: float
    cpu: float  # time.thread_time() seconds spent inside the span
    note: Any = None

    @property
    def wall(self) -> float:
        return self.end - self.start


def _round_of(args, result) -> int | None:
    """The protocol round of a call that carries a ``Message``."""
    for obj in (result, *args):
        r = getattr(obj, "round_idx", None)
        if isinstance(r, int):
            return r
    return None


class Tracer:
    """Context manager that records spans around mpfl's layer boundaries."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [importlib.import_module("mpfl")] + [
            importlib.import_module(f"mpfl.{m}") for m in MODULES
        ]
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for name, (home, attr) in FUNCTIONS.items():
            original = getattr(by_name[home], attr, None)
            if original is None:
                continue
            wrapped = self._wrap(original, name)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapped)
        for name, (home, cls_name, attr) in METHODS.items():
            cls = getattr(by_name[home], cls_name, None)
            original = vars(cls).get(attr) if cls is not None else None
            if original is not None:
                self._patch(cls, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, fn, name: str):
        note = NOTES.get(name)
        signature = inspect.signature(fn)
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            threads = threading.active_count()
            result, returned = None, False
            cpu0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                t1 = time.perf_counter()
                cpu1 = time.thread_time()
                stack.pop()
                detail = None
                if note and returned:
                    detail = note(signature.bind(*args, **kwargs).arguments, result)
                spans.append(
                    Span(sid, name, parent, threading.get_ident(), threads,
                         _round_of(args, result), t0, t1, cpu1 - cpu0, detail)
                )

        return traced


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's wall time minus the time its child spans cover.

    Children run on the parent's thread, nested and one after another, so
    their durations never overlap.
    """
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.wall
    return {s.sid: s.wall - covered[s.sid] for s in spans}


def layer_metrics(spans: list[Span], runs: int) -> dict[str, float]:
    """The per-layer split of ``runs`` traced runs; totals are per run.

    ``*_ms`` metrics are mean wall milliseconds per call; ``*_s`` metrics are
    seconds per run summed over threads, except ``federation.local_round_s``,
    which is per call.  A layer that did not run reads 0.
    """
    by: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by[s.name].append(s)
    own = self_times(spans)

    def per_call_ms(*names: str, self_time: bool = False) -> float:
        calls = [s for n in names for s in by[n]]
        if not calls:
            return 0.0
        return 1e3 * statistics.fmean(own[s.sid] if self_time else s.wall for s in calls)

    def per_run(total: float) -> float:
        return total / runs

    train = by["nn.train_sgd"]
    steps, live, units = (sum(s.note[k] for s in train) for k in range(3))
    server_recv = [s for s in by["transport.recv"] if s.note == "down"]
    node_recv = [s for s in by["transport.recv"] if s.note == "up"]
    node_threads = {s.thread for s in node_recv}
    lifetime: dict[int, list[float]] = {}
    for s in spans:
        if s.thread in node_threads:
            span = lifetime.setdefault(s.thread, [s.start, s.end])
            span[0], span[1] = min(span[0], s.start), max(span[1], s.end)
    node_time = sum(end - start for start, end in lifetime.values())
    node_idle = sum(own[s.sid] for s in node_recv)

    return {
        "nn.sgd_steps": per_run(steps),
        "nn.forward_ms": per_call_ms("nn.forward"),
        "nn.backward_ms": per_call_ms("nn.backward"),
        "nn.sgd_step_ms": per_call_ms("nn.sgd_step"),
        "nn.train_s": per_run(sum(s.wall for s in train)),
        "nn.train_cpu_s": per_run(sum(s.cpu for s in train)),
        "nn.live_unit_frac": live / units if units else 0.0,
        "nn.eval_ms": per_call_ms("nn.accuracy"),
        "pruning.apply_mask_calls": per_run(len(by["pruning.apply_mask"])),
        "pruning.apply_mask_ms": per_call_ms("pruning.apply_mask"),
        "pruning.score_ms": per_call_ms("pruning.weight_scores", "pruning.gradient_scores"),
        "pruning.compute_mask_ms": per_call_ms("pruning.compute_mask"),
        "federation.reduce_ms": per_call_ms("federation.reduce"),
        "federation.fedavg_ms": per_call_ms("federation.fedavg"),
        "federation.local_round_s": per_call_ms("federation.local_round") / 1e3,
        "wire.frames": per_run(len(by["wire.encode"])),
        "wire.frame_bytes": per_run(sum(s.note for s in by["wire.encode"])),
        "wire.encode_ms": per_call_ms("wire.encode"),
        "wire.decode_ms": per_call_ms("wire.decode"),
        "transport.send_ms": per_call_ms("transport.send", self_time=True),
        "transport.connect_ms": per_call_ms("transport.tcp_connect"),
        "transport.server_wait_s": per_run(sum(own[s.sid] for s in server_recv)),
        "transport.node_idle_frac": node_idle / node_time if node_time else 0.0,
        "experiment.peak_threads": max((s.threads for s in spans), default=0),
        "experiment.server_self_s": per_run(sum(own[s.sid] for s in by["experiment.run"])),
        "data.build_env_ms": per_call_ms("data.build_env"),
        "config.validate_ms": per_call_ms("config.validate"),
    }


def write_spans(spans: list[Span], path: Path) -> None:
    """All spans as JSON lines, written once after the traced runs."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        for s in spans:
            out.write(json.dumps(asdict(s)) + "\n")
