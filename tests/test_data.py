"""Data sources, IID partitioning, and per-node contamination."""

import struct

import numpy as np
import pytest

from mpfl.data import (
    Dataset,
    contaminate_labels,
    contaminate_noise,
    load_csv,
    load_idx,
    make_blobs,
    partition_iid,
    random_derangement,
    standardize,
    train_test_split,
)
from mpfl.config import config_from_dict
from mpfl.errors import ConfigError, DataError
from mpfl.experiment import build_env


@pytest.fixture
def blobs(rng):
    return make_blobs(400, 6, 4, rng)


def env_shards(contamination):
    """The shards of a 3-node blobs env with the given contamination."""
    cfg = config_from_dict({
        "nodes": 3,
        "arch": {"input_dim": 6, "hidden": [8], "classes": 4},
        "dataset": {"kind": "blobs", "samples": 120, "features": 6, "classes": 4},
        "contamination": contamination,
    })
    return build_env(cfg).shards


class TestDataset:
    def test_shape_validation(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((4, 2)), np.zeros(3, dtype=int), 2)

    def test_label_range_validation(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((3, 2)), np.array([0, 1, 5]), 3)


class TestStandardize:
    def test_zero_mean_unit_std(self, rng):
        x = standardize(rng.normal(3.0, 7.0, size=(500, 4)))
        np.testing.assert_allclose(x.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(x.std(axis=0), 1.0, atol=1e-12)

    def test_constant_column_survives(self):
        x = np.column_stack([np.full(10, 5.0), np.arange(10.0)])
        out = standardize(x)
        np.testing.assert_array_equal(out[:, 0], 0.0)
        assert np.all(np.isfinite(out))

    def test_non_finite_rejected(self):
        x = np.array([[1.0, np.inf], [2.0, 3.0]])
        with pytest.raises(DataError):
            standardize(x)


class TestBlobs:
    def test_shapes_and_labels(self, blobs):
        assert blobs.x.shape == (400, 6)
        assert blobs.y.shape == (400,)
        assert set(np.unique(blobs.y)) <= set(range(4))
        assert blobs.num_classes == 4

    def test_standardized(self, blobs):
        np.testing.assert_allclose(blobs.x.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(blobs.x.std(axis=0), 1.0, atol=1e-12)

    def test_seed_reproducibility(self):
        a = make_blobs(100, 5, 3, np.random.default_rng(77))
        b = make_blobs(100, 5, 3, np.random.default_rng(77))
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_tighter_clusters_separate_better(self):
        """Smaller cluster_std must shrink within-class spread relative to the
        whole cloud, which is what makes the task learnable."""

        def within_class_spread(ds):
            return np.mean(
                [ds.x[ds.y == c].std(axis=0).mean() for c in range(ds.num_classes)]
            )

        tight = make_blobs(600, 4, 3, np.random.default_rng(5), cluster_std=0.3)
        loose = make_blobs(600, 4, 3, np.random.default_rng(5), cluster_std=3.0)
        assert within_class_spread(tight) < within_class_spread(loose)


class TestCsv:
    def _write(self, tmp_path, text):
        p = tmp_path / "data.csv"
        p.write_text(text)
        return p

    def test_roundtrip(self, tmp_path):
        p = self._write(tmp_path, "a,b,label\n1.0,2.0,0\n3.0,4.0,1\n-1.0,0.5,1\n")
        ds = load_csv(p)
        assert ds.x.shape == (3, 2)
        np.testing.assert_array_equal(ds.y, [0, 1, 1])
        assert ds.num_classes == 2

    def test_label_column_anywhere(self, tmp_path):
        p = self._write(tmp_path, "label,f\n0,1.5\n1,2.5\n")
        ds = load_csv(p)
        assert ds.x.shape == (2, 1)

    def test_missing_label_column(self, tmp_path):
        p = self._write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(DataError, match="label"):
            load_csv(p)

    def test_bad_cell_reports_line(self, tmp_path):
        p = self._write(tmp_path, "a,label\n1.0,0\noops,1\n")
        with pytest.raises(DataError, match="line 3"):
            load_csv(p)

    def test_ragged_row_reports_line(self, tmp_path):
        p = self._write(tmp_path, "a,b,label\n1,2,0\n1,0\n")
        with pytest.raises(DataError, match="line 3"):
            load_csv(p)

    def test_empty_file(self, tmp_path):
        p = self._write(tmp_path, "")
        with pytest.raises(DataError, match="empty"):
            load_csv(p)


class TestIdx:
    def _write_idx(self, path, arr, dtype_code, dtype):
        dims = arr.shape
        head = struct.pack(">HBB", 0, dtype_code, len(dims))
        head += b"".join(struct.pack(">I", d) for d in dims)
        path.write_bytes(head + np.ascontiguousarray(arr, dtype=dtype).tobytes())

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        x = rng.integers(0, 255, size=(20, 4, 4)).astype(np.uint8)
        y = rng.integers(0, 3, size=20).astype(np.uint8)
        fx, fy = tmp_path / "x.idx", tmp_path / "y.idx"
        self._write_idx(fx, x, 0x08, ">u1")
        self._write_idx(fy, y, 0x08, ">u1")
        ds = load_idx(fx, fy)
        assert ds.x.shape == (20, 16)  # images flattened to rows
        assert ds.num_classes == 3

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.idx"
        p.write_bytes(b"\x01\x01\x08\x01" + b"\x00" * 8)
        with pytest.raises(DataError, match="magic"):
            load_idx(p, p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "x.idx"
        head = struct.pack(">HBB", 0, 0x08, 1) + struct.pack(">I", 10)
        p.write_bytes(head + b"\x00" * 4)  # claims 10 bytes, has 4
        with pytest.raises(DataError, match="payload"):
            load_idx(p, p)

    def test_dims_product_does_not_wrap(self, tmp_path):
        """Four dims of 2**16 multiply to 2**64, which wraps to 0 in int64: a
        bare 20-byte header must not pass as a file with an empty payload."""
        p = tmp_path / "x.idx"
        p.write_bytes(struct.pack(">HBB", 0, 0x08, 4) + struct.pack(">4I", *[65536] * 4))
        with pytest.raises(DataError, match="payload is 0 bytes"):
            load_idx(p, p)

    def test_zero_dims_rejected(self, tmp_path):
        fx, fy = tmp_path / "x.idx", tmp_path / "y.idx"
        fx.write_bytes(struct.pack(">HBB", 0, 0x08, 0) + b"\x07")
        self._write_idx(fy, np.zeros(1, np.uint8), 0x08, ">u1")
        with pytest.raises(DataError, match=r"x\.idx: no dimensions"):
            load_idx(fx, fy)

    @pytest.mark.parametrize("bad", [1.7, np.nan, np.inf, -1.0, 1e30, 2.0**63])
    def test_float_labels_must_be_whole(self, tmp_path, bad):
        """A fractional, non-finite or negative float label, or one the int64
        cast would wrap (2**63 and up), is one error naming the labels file,
        not truncated or reported as negative; 1.0 is a valid label."""
        fx, fy = tmp_path / "x.idx", tmp_path / "y.idx"
        self._write_idx(fx, np.zeros((4, 2), np.uint8), 0x08, ">u1")
        self._write_idx(fy, np.array([0.0, 1.0, 2.0, 1.0]), 0x0D, ">f4")
        assert load_idx(fx, fy).y.tolist() == [0, 1, 2, 1]
        self._write_idx(fy, np.array([0.0, bad, 2.0, 1.0]), 0x0D, ">f4")
        with pytest.raises(DataError, match=r"y\.idx: float labels must be finite whole numbers"):
            load_idx(fx, fy)

    def test_zero_rows_rejected(self, tmp_path):
        fx, fy = tmp_path / "x.idx", tmp_path / "y.idx"
        self._write_idx(fx, np.zeros((0, 4), np.uint8), 0x08, ">u1")
        self._write_idx(fy, np.zeros(0, np.uint8), 0x08, ">u1")
        with pytest.raises(DataError, match=r"x\.idx: no samples"):
            load_idx(fx, fy)


class TestPartition:
    def test_disjoint_cover(self, blobs, rng):
        shards = partition_iid(blobs, 7, rng)
        all_idx = np.concatenate(shards)
        assert len(all_idx) == len(blobs)
        assert len(np.unique(all_idx)) == len(blobs)

    def test_sizes_within_one(self, blobs, rng):
        shards = partition_iid(blobs, 7, rng)
        sizes = [len(s) for s in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic(self, blobs):
        a = partition_iid(blobs, 5, np.random.default_rng(11))
        b = partition_iid(blobs, 5, np.random.default_rng(11))
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa, sb)

    def test_too_many_nodes(self, blobs, rng):
        with pytest.raises(ConfigError):
            partition_iid(blobs, len(blobs) + 1, rng)


class TestNoiseContamination:
    def test_variance_grows_by_sigma_squared(self, blobs, rng):
        """Independent noise adds variance: std(x + e) ~ sqrt(1 + sigma^2)."""
        shard = partition_iid(blobs, 2, rng)[0]
        sigma = 1.0
        x = contaminate_noise(blobs.x[shard], sigma, np.random.default_rng(2))
        assert x.std() == pytest.approx(np.sqrt(1 + sigma**2), rel=0.1)

    def test_sigma_zero_is_identity(self, blobs, rng):
        x = blobs.x[partition_iid(blobs, 2, rng)[0]]
        out = contaminate_noise(x, 0.0, rng)
        assert out is not x
        np.testing.assert_array_equal(out, x)

    def test_other_shards_untouched(self, blobs, rng):
        clean = env_shards([])
        noisy = env_shards([{"node": 1, "kind": "noise", "sigma": 5.0}])
        for node in (0, 2):
            for a, b in zip(noisy[node], clean[node]):
                np.testing.assert_array_equal(a, b)
        assert not np.array_equal(noisy[1][0], clean[1][0])
        np.testing.assert_array_equal(noisy[1][1], clean[1][1])

    def test_negative_sigma_rejected(self, blobs, rng):
        with pytest.raises(ConfigError):
            contaminate_noise(blobs.x, -1.0, rng)


class TestLabelContamination:
    def test_derangement_has_no_fixed_points(self, rng):
        for n in (2, 3, 5, 10):
            perm = random_derangement(n, rng)
            assert np.array_equal(np.sort(perm), np.arange(n))
            assert not np.any(perm == np.arange(n))

    def test_every_label_changes(self, blobs, rng):
        y = blobs.y[partition_iid(blobs, 2, rng)[0]]
        before = y.copy()
        out = contaminate_labels(y, blobs.num_classes, rng)
        assert np.all(out != y)
        np.testing.assert_array_equal(y, before)

    def test_features_untouched(self, blobs, rng):
        clean = env_shards([])
        relabeled = env_shards([{"node": 1, "kind": "labels"}])
        np.testing.assert_array_equal(relabeled[1][0], clean[1][0])
        assert np.all(relabeled[1][1] != clean[1][1])


class TestSplit:
    def test_sizes(self, blobs, rng):
        train, test = train_test_split(blobs, 0.25, rng)
        assert len(test) == 100
        assert len(train) == 300

    def test_rows_preserved(self, blobs, rng):
        train, test = train_test_split(blobs, 0.2, rng)
        combined = np.vstack([train.x, test.x])
        assert combined.shape == blobs.x.shape
        # every original row appears exactly once
        orig = {tuple(row) for row in blobs.x}
        got = {tuple(row) for row in combined}
        assert orig == got

    def test_bad_fraction(self, blobs, rng):
        with pytest.raises(ConfigError):
            train_test_split(blobs, 1.0, rng)
