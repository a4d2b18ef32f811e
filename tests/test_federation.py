"""Vote aggregation, consensus reduction, and the node/server round."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpfl.config import ConsensusConfig, PruningConfig, TrainingConfig
from mpfl.errors import ConfigError, ConstraintError, LayoutError
from mpfl.federation import (
    HISTOGRAM,
    TOPK,
    Node,
    ParameterServer,
    average_mask,
    consensus_histogram,
    consensus_topk,
    fedavg,
    keep_budget,
)
from mpfl.model import ModelParams, PruneMask, ScoreVector, VoteHistogram
from mpfl.pruning import compute_mask, weight_scores

from conftest import both, make_arch, make_model, random_mask, same_params


def mask_of(arch, *layer_bits):
    return PruneMask(arch, [np.array(bits, dtype=bool) for bits in layer_bits])


class TestAverageMask:
    def test_vote_fractions(self):
        arch = make_arch(1, 4)
        masks = [
            mask_of(arch, [1, 1, 0, 0]),
            mask_of(arch, [1, 0, 1, 0]),
            mask_of(arch, [1, 1, 1, 0]),
        ]
        hist = average_mask(masks)
        np.testing.assert_allclose(hist.layers[0], [1.0, 2 / 3, 2 / 3, 0.0])
        assert hist.n_nodes == 3
        np.testing.assert_array_equal(hist.keep_votes(0), [3, 2, 2, 0])

    def test_single_mask(self, tiny_arch, rng):
        m = random_mask(tiny_arch, rng)
        hist = average_mask([m])
        for hl, ml in zip(hist.layers, m.layers):
            np.testing.assert_array_equal(hl, ml.astype(float))

    def test_layout_mismatch(self):
        """4-8-3 and 5-8-3 have the same group counts but not the same layout."""
        masks = [PruneMask.ones(make_arch(4, 8, 3)), PruneMask.ones(make_arch(5, 8, 3))]
        with pytest.raises(LayoutError):
            average_mask(masks)


class TestKeepBudget:
    def test_matches_prune_arithmetic(self):
        arch = make_arch(1, 10)
        assert keep_budget(PruneMask.ones(arch), 0.1) == [9]
        prev = mask_of(arch, [1] * 5 + [0] * 5)
        assert keep_budget(prev, 0.5) == [2]  # ceil(2.5) = 3 pruned of 5

    def test_floor(self):
        arch = make_arch(1, 4)
        assert keep_budget(PruneMask.ones(arch), 0.99, min_keep=3) == [3]


class TestConsensusTopk:
    def test_keeps_highest_votes(self):
        arch = make_arch(1, 4)
        hist = VoteHistogram(arch, [np.array([1.0, 0.5, 0.5, 0.2])], n_nodes=10)
        got = consensus_topk(hist, [2], PruneMask.ones(arch))
        np.testing.assert_array_equal(got.layers[0], [True, True, False, False])

    def test_vote_tie_keeps_lower_index(self):
        arch = make_arch(1, 4)
        hist = VoteHistogram(arch, [np.array([0.5, 0.5, 0.5, 0.5])], n_nodes=2)
        got = consensus_topk(hist, [2], PruneMask.ones(arch))
        np.testing.assert_array_equal(got.layers[0], [True, True, False, False])

    def test_only_live_groups_compete(self):
        arch = make_arch(1, 4)
        prev = mask_of(arch, [0, 1, 1, 1])
        # group 0 has the most votes but is already pruned
        hist = VoteHistogram(arch, [np.array([1.0, 0.1, 0.6, 0.3])], n_nodes=10)
        got = consensus_topk(hist, [2], prev)
        np.testing.assert_array_equal(got.layers[0], [False, False, True, True])

    def test_budget_below_floor_raises(self):
        arch = make_arch(1, 4)
        hist = VoteHistogram(arch, [np.full(4, 0.5)], n_nodes=2)
        with pytest.raises(ConstraintError):
            consensus_topk(hist, [1], PruneMask.ones(arch), min_keep=2)

    def test_large_instance_exact_count(self):
        """Budget arithmetic holds at six figures: 100k groups, keep 90k."""
        arch = make_arch(1, 100_000)
        rng = np.random.default_rng(99)
        hist = VoteHistogram(arch, [rng.random(100_000)], n_nodes=1_000_000)
        got = consensus_topk(hist, [90_000], PruneMask.ones(arch))
        assert got.keep_counts() == [90_000]
        # every kept vote must be >= every dropped vote
        votes = hist.layers[0]
        kept = votes[got.layers[0]]
        dropped = votes[~got.layers[0]]
        assert kept.min() >= dropped.max()


class TestConsensusHistogram:
    def test_agreement_cut_at_integer_votes(self):
        """With 10 nodes at 0.9 agreement, 9 votes keep a group, 8 do not."""
        arch = make_arch(1, 3)
        hist = VoteHistogram(arch, [np.array([0.9, 0.8, 1.0])], n_nodes=10)
        got = consensus_histogram(hist, 0.9, PruneMask.ones(arch))
        np.testing.assert_array_equal(got.layers[0], [True, False, True])

    def test_agreement_near_zero_keeps_any_vote(self):
        arch = make_arch(1, 3)
        hist = VoteHistogram(arch, [np.array([0.1, 0.0, 0.5])], n_nodes=10)
        got = consensus_histogram(hist, 1e-12, PruneMask.ones(arch))
        np.testing.assert_array_equal(got.layers[0], [True, False, True])

    def test_min_keep_restores_top_voted(self):
        arch = make_arch(1, 4)
        hist = VoteHistogram(arch, [np.array([0.1, 0.4, 0.3, 0.2])], n_nodes=10)
        got = consensus_histogram(hist, 0.9, PruneMask.ones(arch), min_keep=2)
        # nobody clears 9 votes; the two highest-voted groups are restored
        np.testing.assert_array_equal(got.layers[0], [False, True, True, False])

    def test_respects_prev_mask(self):
        arch = make_arch(1, 3)
        prev = mask_of(arch, [0, 1, 1])
        hist = VoteHistogram(arch, [np.array([1.0, 1.0, 0.0])], n_nodes=5)
        got = consensus_histogram(hist, 0.9, prev)
        np.testing.assert_array_equal(got.layers[0], [False, True, False])


class TestConsensusNonLinearity:
    def test_mask_of_average_differs_from_average_of_masks(self):
        """Voting is not interchangeable with averaging weights first.

        Two nodes hold scalar groups w1 = [3, 1, 2] and w2 = [1, 3, 2].  At a
        one-third sparsity cut each prunes its own weakest group, so the vote
        average is [0.5, 0.5, 1.0] and majority voting keeps everything.  The
        averaged weights are [2, 2, 2], where the same cut prunes group 0.
        """
        arch = make_arch(1, 3)
        w1 = ModelParams(arch, [np.array([[3.0], [1.0], [2.0]])], [np.zeros(3)])
        w2 = ModelParams(arch, [np.array([[1.0], [3.0], [2.0]])], [np.zeros(3)])
        ones = PruneMask.ones(arch)

        m1 = compute_mask(weight_scores(w1), 1 / 3, ones)
        m2 = compute_mask(weight_scores(w2), 1 / 3, ones)
        np.testing.assert_array_equal(m1.layers[0], [True, False, True])
        np.testing.assert_array_equal(m2.layers[0], [False, True, True])

        hist = average_mask([m1, m2])
        np.testing.assert_allclose(hist.layers[0], [0.5, 0.5, 1.0])
        voted = consensus_histogram(hist, 0.5, ones)
        np.testing.assert_array_equal(voted.layers[0], [True, True, True])

        mask_of_avg = compute_mask(weight_scores(fedavg([w1, w2])), 1 / 3, ones)
        np.testing.assert_array_equal(mask_of_avg.layers[0], [False, True, True])
        assert voted != mask_of_avg

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_histogram_result_bounded_by_unanimity(self, data):
        """Consensus keeps at most the union and at least the unanimous core."""
        dims = data.draw(st.lists(st.integers(2, 7), min_size=2, max_size=3))
        arch = make_arch(*dims)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        n = data.draw(st.integers(1, 7))
        masks = [random_mask(arch, rng) for _ in range(n)]
        hist = average_mask(masks)
        got = consensus_histogram(hist, 0.99, PruneMask.ones(arch), min_keep=0)
        union = masks[0]
        inter = masks[0]
        for m in masks[1:]:
            union = PruneMask(arch, [a | b for a, b in zip(union.layers, m.layers)])
            inter = both(inter, m)
        assert got.issubset(union)
        assert inter.issubset(got)


class TestFedavg:
    def test_mean_of_two(self, tiny_arch):
        a = make_model(tiny_arch, seed=1)
        b = make_model(tiny_arch, seed=2)
        avg = fedavg([a, b])
        np.testing.assert_allclose(avg.weights[0], (a.weights[0] + b.weights[0]) / 2)

    def test_identity_on_one(self, tiny_model):
        assert same_params(fedavg([tiny_model]), tiny_model)

    def test_layout_mismatch(self):
        models = [make_model(make_arch(4, 8, 3)), make_model(make_arch(5, 8, 3))]
        with pytest.raises(LayoutError):
            fedavg(models)

    def test_bytes_match_numpy_mean(self):
        """Ten models with -0.0 entries, one of them -0.0 in every model: the
        bytes equal np.mean over the stacked arrays."""
        arch = make_arch(6, 9, 4)
        rng = np.random.default_rng(4)
        models = [make_model(arch, seed=s) for s in range(10)]
        for m in models:
            for a in m.weights + m.biases:
                a[rng.random(a.shape) < 0.3] = -0.0
                a.flat[0] = -0.0
        avg = fedavg(models)
        for i in range(len(arch.shapes)):
            want_w = np.mean([m.weights[i] for m in models], axis=0)
            want_b = np.mean([m.biases[i] for m in models], axis=0)
            assert avg.weights[i].tobytes() == want_w.tobytes()
            assert avg.biases[i].tobytes() == want_b.tobytes()


class TestParameterServer:
    def _nodes_unanimous_votes(self, arch, rng, n=4):
        masks = []
        scores = ScoreVector(arch, [rng.random(g) for g in arch.groups])
        prev = PruneMask.ones(arch)
        for _ in range(n):
            masks.append(compute_mask(scores, 0.25, prev))
        return masks

    def test_topk_trajectory_is_monotone(self, rng):
        arch = make_arch(3, 8, 4)
        ps = ParameterServer(ConsensusConfig(strategy=TOPK), min_keep=1)
        prev = PruneMask.ones(arch)
        for _ in range(3):
            masks = [both(random_mask(arch, rng), prev) for _ in range(5)]
            new = ps.reduce(masks, prev, 0.2)
            assert new.issubset(prev)
            prev = new

    def test_topk_budget_achieved(self, rng):
        arch = make_arch(2, 10, 5)
        ps = ParameterServer(ConsensusConfig(strategy=TOPK), min_keep=1)
        masks = self._nodes_unanimous_votes(arch, rng)
        new = ps.reduce(masks, PruneMask.ones(arch), 0.25)
        assert new.keep_counts() == ps.budget_history[-1]

    def test_histogram_budget_is_live_count(self, rng):
        arch = make_arch(2, 6, 3)
        ps = ParameterServer(ConsensusConfig(strategy=HISTOGRAM, agreement=0.9), min_keep=1)
        prev = random_mask(arch, rng)
        new = ps.reduce([random_mask(arch, rng) for _ in range(4)], prev, 0.2)
        assert ps.budget_history[-1] == prev.keep_counts()
        assert new.issubset(prev)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigError):
            ParameterServer(ConsensusConfig(strategy="median"), min_keep=1)


class TestNode:
    def _node(self, arch, seed, lr=0.1, samples=60):
        rng = np.random.default_rng(seed)
        from mpfl.data import make_blobs

        ds = make_blobs(samples, arch.in_dim, arch.num_classes, rng)
        return Node(
            node_id=0,
            x=ds.x,
            y=ds.y,
            model=make_model(arch, seed=seed),
            rng=np.random.default_rng(seed + 1),
            training=TrainingConfig(lr=lr, epochs_per_round=2, batch_size=16),
            pruning=PruningConfig(),
        )

    def test_local_round_votes_subset(self):
        arch = make_arch(4, 8, 3)
        node = self._node(arch, seed=40)
        prev = PruneMask.ones(arch)
        vote = node.local_round(prev, 0.25)
        assert vote.issubset(prev)
        assert not node.flagged

    def test_divergent_node_flags_and_abstains(self):
        """A NaN feature poisons the gradients, so the node must abstain."""
        arch = make_arch(4, 8, 3)
        node = self._node(arch, seed=41)
        node.x[0, 0] = np.nan
        prev = PruneMask.ones(arch)
        vote = node.local_round(prev, 0.25)
        assert node.flagged
        assert vote == prev

    def test_exploding_weights_also_flag(self):
        """Weights already at inf trip the finiteness check after training."""
        arch = make_arch(4, 8, 3)
        node = self._node(arch, seed=43)
        node.model.weights[0][0, 0] = np.inf
        with np.errstate(invalid="ignore"):
            vote = node.local_round(PruneMask.ones(arch), 0.25)
        assert node.flagged
        assert vote == PruneMask.ones(arch)

