"""Dataset loading, IID partitioning, and node contamination.

Sources: synthetic Gaussian blobs, labeled CSV, and IDX binary pairs.  All
features are standardized per-feature after loading.  A node's shard is its
sorted row indices into the training set, gathered once into its own feature
and label arrays.  Contamination returns new arrays, so the parent dataset and
every other shard stay bit-identical.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError


@dataclass
class Dataset:
    x: np.ndarray  # (n, d) float64, standardized
    y: np.ndarray  # (n,) int64
    num_classes: int

    def __post_init__(self):
        if self.x.ndim != 2 or self.y.shape != (self.x.shape[0],):
            raise DataError(
                f"inconsistent dataset shapes {self.x.shape} / {self.y.shape}"
            )
        if self.num_classes < 2:
            raise DataError("need at least two classes")
        if np.any(self.y < 0) or np.any(self.y >= self.num_classes):
            raise DataError("labels outside [0, num_classes)")

    def __len__(self) -> int:
        return self.x.shape[0]


def standardize(x: np.ndarray) -> np.ndarray:
    """Per-feature zero mean, unit variance; constant features are left centered."""
    if not np.all(np.isfinite(x)):
        raise DataError("features contain non-finite values")
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std[std == 0.0] = 1.0
    return (x - mean) / std


def make_blobs(
    samples: int,
    features: int,
    classes: int,
    rng: np.random.Generator,
    cluster_std: float = 1.0,
) -> Dataset:
    """Gaussian class clusters with uniformly drawn centers, standardized."""
    if samples < classes:
        raise ConfigError("need at least one sample per class")
    centers = rng.uniform(-4.0, 4.0, size=(classes, features))
    y = rng.integers(0, classes, size=samples)
    x = centers[y] + rng.normal(0.0, cluster_std, size=(samples, features))
    return Dataset(standardize(x), y.astype(np.int64), classes)


def load_csv(path: str | Path, label_column: str = "label") -> Dataset:
    """Headered CSV with float features and one integer label column."""
    path = Path(path)
    try:
        fh = path.open(newline="")
    except OSError as e:
        raise DataError(f"{path}: {e}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if label_column not in header:
            raise DataError(f"{path}: no {label_column!r} column in header")
        label_idx = header.index(label_column)
        feats, labels = [], []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(f"{path} line {line_no}: expected {len(header)} cells")
            try:
                labels.append(int(row[label_idx]))
                feats.append(
                    [float(c) for i, c in enumerate(row) if i != label_idx]
                )
            except ValueError as e:
                raise DataError(f"{path} line {line_no}: {e}") from None
    if not feats:
        raise DataError(f"{path}: no data rows")
    y = np.asarray(labels, dtype=np.int64)
    if y.min() < 0:
        raise DataError(f"{path}: negative labels")
    return Dataset(standardize(np.asarray(feats)), y, int(y.max()) + 1)


_IDX_DTYPES = {
    0x08: np.dtype(">u1"),
    0x09: np.dtype(">i1"),
    0x0B: np.dtype(">i2"),
    0x0C: np.dtype(">i4"),
    0x0D: np.dtype(">f4"),
    0x0E: np.dtype(">f8"),
}


def _read_idx(path: Path) -> np.ndarray:
    try:
        buf = path.read_bytes()
    except OSError as e:
        raise DataError(f"{path}: {e}") from None
    if len(buf) < 4:
        raise DataError(f"{path}: truncated before magic (offset {len(buf)})")
    zero1, zero2, dtype_code, ndim = struct.unpack_from(">BBBB", buf)
    if zero1 != 0 or zero2 != 0:
        raise DataError(f"{path}: bad magic bytes (offset 0)")
    if dtype_code not in _IDX_DTYPES:
        raise DataError(f"{path}: unknown dtype code 0x{dtype_code:02x} (offset 2)")
    if ndim < 1:
        raise DataError(f"{path}: no dimensions (offset 3)")
    head = 4 + 4 * ndim
    if len(buf) < head:
        raise DataError(f"{path}: truncated dimension list (offset {len(buf)})")
    dims = struct.unpack_from(f">{ndim}I", buf, 4)
    if dims[0] == 0:
        raise DataError(f"{path}: no samples (offset 4)")
    dt = _IDX_DTYPES[dtype_code]
    # Python ints: an int64 product of large dims can wrap to a size that fits
    expected = head + math.prod(dims) * dt.itemsize
    if len(buf) != expected:
        raise DataError(f"{path}: payload is {len(buf) - head} bytes, dims need "
                        f"{expected - head} (offset {head})")
    return np.frombuffer(buf, dtype=dt, offset=head).reshape(dims)


def load_idx(features_path: str | Path, labels_path: str | Path) -> Dataset:
    """IDX binary pair: an N x ... feature tensor and an N-vector of labels."""
    feats = _read_idx(Path(features_path))
    labels = _read_idx(Path(labels_path))
    if labels.ndim != 1:
        raise DataError(f"{labels_path}: labels must be one-dimensional")
    if feats.shape[0] != labels.shape[0]:
        raise DataError(
            f"feature/label count mismatch: {feats.shape[0]} vs {labels.shape[0]}"
        )
    # checked before the int64 cast, which would wrap a label of 2**63 or more
    if labels.dtype.kind == "f" and not np.all(
        (labels >= 0) & (labels < 2.0**63) & (labels == np.floor(labels))
    ):
        raise DataError(f"{labels_path}: float labels must be finite whole numbers in [0, 2**63)")
    x = feats.reshape(feats.shape[0], -1).astype(np.float64)
    y = labels.astype(np.int64)
    if y.min() < 0:
        raise DataError(f"{labels_path}: negative labels")
    return Dataset(standardize(x), y, int(y.max()) + 1)


def partition_iid(ds: Dataset, n_nodes: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Seeded shuffle then round-robin: each node's sorted row indices, disjoint,
    covering the set, sizes differing by at most one."""
    if n_nodes < 1 or n_nodes > len(ds):
        raise ConfigError(f"cannot split {len(ds)} samples across {n_nodes} nodes")
    perm = rng.permutation(len(ds))
    return [np.sort(perm[i::n_nodes]) for i in range(n_nodes)]


def contaminate_noise(x: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """New features: ``x`` plus Gaussian noise of standard deviation ``sigma``."""
    if sigma < 0:
        raise ConfigError(f"noise sigma must be >= 0, got {sigma}")
    return x + rng.normal(0.0, sigma, size=x.shape) if sigma > 0 else x.copy()


def random_derangement(n: int, rng: np.random.Generator) -> np.ndarray:
    """A seeded permutation of range(n) with no fixed points (n >= 2)."""
    if n < 2:
        raise ConfigError("derangements need at least two classes")
    while True:
        perm = rng.permutation(n)
        if not np.any(perm == np.arange(n)):
            return perm


def contaminate_labels(y: np.ndarray, num_classes: int, rng: np.random.Generator) -> np.ndarray:
    """New labels: ``y`` relabeled through a seeded class derangement."""
    return random_derangement(num_classes, rng)[y]


def held_out_rows(samples: int, test_fraction: float) -> int:
    """How many of ``samples`` rows ``train_test_split`` keeps for testing."""
    return max(1, int(round(test_fraction * samples)))


def train_test_split(
    ds: Dataset, test_fraction: float, rng: np.random.Generator
) -> tuple[Dataset, Dataset]:
    """Seeded row split; both halves keep the parent's class count."""
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError(f"test fraction must be in (0, 1), got {test_fraction}")
    perm = rng.permutation(len(ds))
    n_test = held_out_rows(len(ds), test_fraction)
    test, train = perm[:n_test], perm[n_test:]
    if train.size == 0:
        raise ConfigError("test fraction leaves no training data")
    return (
        Dataset(ds.x[train], ds.y[train], ds.num_classes),
        Dataset(ds.x[test], ds.y[test], ds.num_classes),
    )
