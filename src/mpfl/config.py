"""Experiment configuration: a versioned YAML document with nested sections.

Every run is fully described by one file plus an optional set of flag
overrides; all randomness flows from the single ``seed``.  ``load_config``
and ``dump_config`` round-trip exactly.  The dataclasses below are the schema:
the loader reads each key's type and default from their fields.
"""

# no ``from __future__ import annotations``: the loader reads the fields'
# annotations as types
import math
import types
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path
from typing import Any, get_args, get_origin

import yaml

from .data import held_out_rows
from .errors import ConfigError
from .model import ArchSpec
from .pruning import _min_keep_per_layer

CONFIG_VERSION = 1

ALGORITHMS = ("mpfl", "pruning_fl", "lth_central", "fedavg")


def _require(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {msg}")


def _as_int(val: Any, path: str) -> int:
    _require(isinstance(val, int) and not isinstance(val, bool), path, f"expected an integer, got {val!r}")
    return val


def _as_float(val: Any, path: str) -> float:
    _require(isinstance(val, (int, float)) and not isinstance(val, bool), path, f"expected a number, got {val!r}")
    return float(val)


def _as_str(val: Any, path: str) -> str:
    _require(isinstance(val, str), path, f"expected a string, got {val!r}")
    return val


@dataclass
class ArchConfig:
    input_dim: int = 64
    hidden: list[int] = field(default_factory=lambda: [512])
    classes: int = 10

    def to_spec(self) -> ArchSpec:
        return ArchSpec.mlp([self.input_dim, *self.hidden, self.classes])


@dataclass
class DatasetConfig:
    kind: str = "blobs"  # blobs | csv | idx
    samples: int = 5000
    features: int = 64
    classes: int = 10
    cluster_std: float = 1.0
    test_fraction: float = 0.2
    path: str = ""          # csv
    label_column: str = "label"
    features_path: str = ""  # idx
    labels_path: str = ""
    # precision of the raw source values, used only to cost the centralized
    # baseline's one-shot data upload (8 for byte-per-channel images)
    raw_feature_bits: int = 32


@dataclass
class TrainingConfig:
    lr: float = 0.1
    epochs_per_round: int = 3
    batch_size: int = 64


@dataclass
class PruningConfig:
    p: int = 2
    schedule: list[float] = field(default_factory=lambda: [0.1] * 5)
    min_keep: int | list[int] = 1


@dataclass
class ConsensusConfig:
    strategy: str = "topk"  # topk | histogram
    agreement: float = 0.9


@dataclass
class ContaminationSpec:
    node: int
    kind: str  # noise | labels
    sigma: float = 1.0


@dataclass
class TransportConfig:
    kind: str = "loopback"  # loopback | tcp


@dataclass
class ExperimentConfig:
    seed: int = 7
    algorithm: str = "mpfl"
    nodes: int = 10
    final_rounds: int = 10
    version: int = CONFIG_VERSION
    arch: ArchConfig = field(default_factory=ArchConfig)
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    pruning: PruningConfig = field(default_factory=PruningConfig)
    consensus: ConsensusConfig = field(default_factory=ConsensusConfig)
    transport: TransportConfig = field(default_factory=TransportConfig)
    contamination: list[ContaminationSpec] = field(default_factory=list)

    def validate(self) -> "ExperimentConfig":
        _require(self.version == CONFIG_VERSION, "version",
                 f"this build reads config version {CONFIG_VERSION}, got {self.version}")
        _require(self.algorithm in ALGORITHMS, "algorithm",
                 f"must be one of {ALGORITHMS}, got {self.algorithm!r}")
        _require(self.seed >= 0, "seed", f"must be >= 0, got {self.seed}")
        _require(self.nodes >= 1, "nodes", "need at least one node")
        _require(self.final_rounds >= 0, "final_rounds", "must be >= 0")
        _require(self.algorithm != "pruning_fl" or self.pruning.schedule or self.final_rounds,
                 "final_rounds", "pruning_fl needs at least one round: a schedule or a final round")
        _require(0 < self.training.lr < math.inf, "training.lr",
                 f"must be positive and finite, got {self.training.lr}")
        _require(self.training.epochs_per_round >= 0, "training.epochs_per_round", "must be >= 0")
        _require(self.training.batch_size >= 1, "training.batch_size", "must be >= 1")
        _require(self.pruning.p in (1, 2), "pruning.p", "must be 1 or 2")
        for i, inc in enumerate(self.pruning.schedule):
            _require(0.0 < inc < 1.0, f"pruning.schedule[{i}]",
                     f"increments must be in (0, 1), got {inc}")
        _require(self.consensus.strategy in ("topk", "histogram"), "consensus.strategy",
                 f"must be 'topk' or 'histogram', got {self.consensus.strategy!r}")
        _require(0.0 < self.consensus.agreement <= 1.0, "consensus.agreement",
                 "must be in (0, 1]")
        _require(self.transport.kind in ("loopback", "tcp"), "transport.kind",
                 f"must be 'loopback' or 'tcp', got {self.transport.kind!r}")
        _require(self.dataset.kind in ("blobs", "csv", "idx"), "dataset.kind",
                 f"must be 'blobs', 'csv' or 'idx', got {self.dataset.kind!r}")
        _require(0.0 < self.dataset.test_fraction < 1.0, "dataset.test_fraction",
                 "must be in (0, 1)")
        if self.dataset.kind == "blobs":
            samples, classes = self.dataset.samples, self.dataset.classes
            _require(samples >= classes, "dataset.samples",
                     f"need at least one sample per class, got {samples} for {classes} classes")
            train = samples - held_out_rows(samples, self.dataset.test_fraction)
            _require(train >= self.nodes, "dataset.samples",
                     f"the test split leaves {train} training samples for {self.nodes} nodes")
            _require(0 <= self.dataset.cluster_std < math.inf, "dataset.cluster_std",
                     f"must be >= 0 and finite, got {self.dataset.cluster_std}")
            _require(self.dataset.features == self.arch.input_dim, "dataset.features",
                     f"dataset has {self.dataset.features} features, "
                     f"architecture expects {self.arch.input_dim}")
            _require(self.dataset.classes == self.arch.classes, "dataset.classes",
                     f"dataset has {self.dataset.classes} classes, "
                     f"architecture expects {self.arch.classes}")
        _require(self.dataset.raw_feature_bits >= 1, "dataset.raw_feature_bits",
                 "must be >= 1")
        seen = set()
        for i, c in enumerate(self.contamination):
            _require(0 <= c.node < self.nodes, f"contamination[{i}].node",
                     f"node id {c.node} outside [0, {self.nodes})")
            _require(c.node not in seen, f"contamination[{i}].node",
                     f"node {c.node} contaminated twice")
            seen.add(c.node)
            _require(c.kind in ("noise", "labels"), f"contamination[{i}].kind",
                     f"must be 'noise' or 'labels', got {c.kind!r}")
            if c.kind == "noise":
                _require(c.sigma >= 0, f"contamination[{i}].sigma", "must be >= 0")
        _require(self.arch.classes >= 2, "arch.classes", f"must be >= 2, got {self.arch.classes}")
        # ArchSpec construction validates the dims
        try:
            spec = self.arch.to_spec()
        except ConfigError as e:
            raise ConfigError(f"arch: {e}") from None
        try:
            _min_keep_per_layer(spec, self.pruning.min_keep)
        except ConfigError as e:
            raise ConfigError(f"pruning.min_keep: {e}") from None
        return self


def _as_type(kind: Any, val: Any, path: str) -> Any:
    """Check ``val`` against a field's type, e.g. ``list[float]``, building a section."""
    if isinstance(kind, types.UnionType):  # int | list[int]
        kind = next(k for k in get_args(kind) if (get_origin(k) is list) == isinstance(val, list))
    if get_origin(kind) is list:
        _require(isinstance(val, list), path, f"expected a list, got {val!r}")
        return [_as_type(get_args(kind)[0], v, f"{path}[{i}]") for i, v in enumerate(val)]
    if is_dataclass(kind):
        return _build(kind, val, path)
    return {int: _as_int, float: _as_float, str: _as_str}[kind](val, path)


def _build(cls, raw: Any, path: str):
    """Construct a config dataclass, checking each key and value type with its path."""
    _require(isinstance(raw, dict), path or "config", f"expected a mapping, got {type(raw).__name__}")
    fields = cls.__dataclass_fields__
    kwargs = {}
    for key, val in raw.items():
        sub = f"{path}.{key}" if path else key
        _require(key in fields, sub, "unknown key")
        kwargs[key] = _as_type(fields[key].type, val, sub)
    try:
        return cls(**kwargs)
    except TypeError as e:
        raise ConfigError(f"{path or 'config'}: {e}") from None


def config_from_dict(raw: dict) -> ExperimentConfig:
    return _build(ExperimentConfig, raw, "").validate()


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return asdict(cfg)


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        raw = yaml.safe_load(Path(path).read_text())
    except yaml.YAMLError as e:
        raise ConfigError(f"{path}: {e}") from None
    except OSError as e:
        raise ConfigError(str(e)) from None
    if raw is None:
        raw = {}
    return config_from_dict(raw)


def dump_config(cfg: ExperimentConfig, path: str | Path | None = None) -> str:
    text = yaml.safe_dump(config_to_dict(cfg), sort_keys=False)
    if path is not None:
        Path(path).write_text(text)
    return text


def _slot(cursor: Any, step: str, dotted: str) -> str | int:
    """The dict key or list index that one step of a dotted path names in ``cursor``."""
    if isinstance(cursor, list):
        _require(step.isdigit() and int(step) < len(cursor), dotted,
                 f"no index {step!r} in a list of {len(cursor)}")
        return int(step)
    _require(isinstance(cursor, dict) and step in cursor, dotted, "unknown key path")
    return step


def apply_overrides(cfg: ExperimentConfig, overrides: dict[str, Any]) -> ExperimentConfig:
    """Re-build the config with dotted-path overrides (flag wins over file); a
    numeric step indexes a list at any depth."""
    raw = config_to_dict(cfg)
    for dotted, value in overrides.items():
        *parents, leaf = dotted.split(".")
        cursor: Any = raw
        for step in parents:
            cursor = cursor[_slot(cursor, step, dotted)]
        cursor[_slot(cursor, leaf, dotted)] = value
    return config_from_dict(raw)
