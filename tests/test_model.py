"""Model containers: layer layout, masks, initialization."""

import numpy as np
import pytest

from mpfl.errors import ConfigError, LayoutError
from mpfl.model import (
    ArchSpec,
    ModelParams,
    PruneMask,
    ScoreVector,
    VoteHistogram,
    init_params,
)

from conftest import make_arch, make_model, random_mask, same_params


class TestArchSpec:
    def test_mlp_shapes(self):
        arch = make_arch(4, 8, 3)
        assert arch.dims == (4, 8, 3)
        assert arch.shapes == ((8, 4), (3, 8))

    def test_groups_and_sizes(self):
        arch = make_arch(4, 8, 3)
        # one group per output neuron, each owning its weight row plus bias
        assert arch.groups == (8, 3)
        assert arch.group_sizes == (5, 9)
        assert arch.num_groups == 11

    def test_in_out_dims(self):
        arch = make_arch(6, 10, 10, 2)
        assert arch.in_dim == 6
        assert arch.num_classes == 2

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ConfigError):
            make_arch(4, 0, 3)
        with pytest.raises(ConfigError):
            ArchSpec.mlp([4])


class TestModelParams:
    def test_shape_validation(self, tiny_arch):
        good = make_model(tiny_arch)
        with pytest.raises(LayoutError):
            ModelParams(
                arch=tiny_arch,
                weights=[w.T.copy() for w in good.weights],
                biases=[b.copy() for b in good.biases],
            )

    def test_group_matrix_is_row_plus_bias(self, tiny_model):
        gm = tiny_model.group_matrix(0)
        assert gm.shape == (8, 5)
        np.testing.assert_array_equal(gm[:, :-1], tiny_model.weights[0])
        np.testing.assert_array_equal(gm[:, -1], tiny_model.biases[0])

    def test_copy_is_deep(self, tiny_model):
        dup = tiny_model.copy()
        dup.weights[0][0, 0] += 1.0
        assert tiny_model.weights[0][0, 0] != dup.weights[0][0, 0]

    def test_is_finite(self, tiny_model):
        assert tiny_model.is_finite()
        bad = tiny_model.copy()
        bad.weights[0][2, 1] = np.nan
        assert not bad.is_finite()


class TestPruneMask:
    def test_ones_and_zeros(self, tiny_arch):
        ones = PruneMask.ones(tiny_arch)
        assert ones.keep_counts() == [8, 3]
        assert ones.sparsity() == 0.0
        zeros = PruneMask(tiny_arch, [np.zeros(n, dtype=bool) for n in tiny_arch.groups])
        assert zeros.num_kept() == 0
        assert zeros.sparsity() == 1.0

    def test_sparsity_counts_groups_not_params(self, tiny_arch):
        mask = PruneMask.ones(tiny_arch)
        mask.layers[0][:4] = False
        # 4 of 11 groups pruned
        assert mask.sparsity() == pytest.approx(4 / 11)

    def test_intersect(self, tiny_arch, rng):
        a = random_mask(tiny_arch, rng)
        b = random_mask(tiny_arch, rng)
        c = a.intersect(b)
        for la, lb, lc in zip(a.layers, b.layers, c.layers):
            np.testing.assert_array_equal(lc, la & lb)

    def test_issubset(self, tiny_arch, rng):
        a = random_mask(tiny_arch, rng)
        b = a.intersect(random_mask(tiny_arch, rng))
        assert b.issubset(a)
        if b != a:
            assert not a.issubset(b)

    def test_equality(self, tiny_arch):
        assert PruneMask.ones(tiny_arch) == PruneMask.ones(tiny_arch)
        dropped = PruneMask.ones(tiny_arch)
        dropped.layers[1][0] = False
        assert PruneMask.ones(tiny_arch) != dropped

    def test_layer_length_validated(self, tiny_arch):
        with pytest.raises(LayoutError):
            PruneMask(arch=tiny_arch, layers=[np.ones(7, dtype=bool), np.ones(3, dtype=bool)])


class TestScoreVector:
    def test_rejects_negative(self, tiny_arch):
        with pytest.raises(LayoutError):
            ScoreVector(arch=tiny_arch, layers=[-np.ones(8), np.ones(3)])

    def test_concat(self, tiny_arch):
        sv = ScoreVector(arch=tiny_arch, layers=[np.arange(8.0), np.arange(3.0)])
        np.testing.assert_array_equal(sv.concat(), np.r_[np.arange(8.0), np.arange(3.0)])


class TestVoteHistogram:
    def test_keep_votes_rounds_to_integers(self, tiny_arch):
        hist = VoteHistogram(
            arch=tiny_arch,
            layers=[np.full(8, 2 / 3), np.full(3, 1 / 3)],
            n_nodes=3,
        )
        np.testing.assert_array_equal(hist.keep_votes(0), np.full(8, 2))
        np.testing.assert_array_equal(hist.keep_votes(1), np.full(3, 1))


class TestInitParams:
    def test_shapes_and_zero_bias(self, tiny_arch, rng):
        params = init_params(tiny_arch, rng)
        assert params.weights[0].shape == (8, 4)
        assert params.weights[1].shape == (3, 8)
        for b in params.biases:
            np.testing.assert_array_equal(b, 0.0)

    def test_uniform_bound(self, rng):
        arch = make_arch(100, 50)
        params = init_params(arch, rng)
        bound = np.sqrt(6.0 / (100 + 50))
        assert np.abs(params.weights[0]).max() <= bound

    def test_seed_reproducibility(self, tiny_arch):
        a = init_params(tiny_arch, np.random.default_rng(9))
        b = init_params(tiny_arch, np.random.default_rng(9))
        assert same_params(a, b)
