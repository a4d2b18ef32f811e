"""Scoring and percentile masking against brute-force oracles.

The oracle for compute_mask sorts live (score, index) pairs and cuts the
prefix, which is an independent restatement of the nearest-rank rule.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpfl import pruning
from mpfl.errors import ConfigError
from mpfl.model import ModelParams, PruneMask, ScoreVector
from mpfl.pruning import (
    apply_mask,
    compute_mask,
    nearest_rank,
    prune_count,
    weight_scores,
    zero_pruned,
)

from conftest import make_arch, make_model, random_mask, same_params


def oracle_norms(model, p):
    """Per-group norms with explicit scalar loops."""
    out = []
    for li in range(len(model.weights)):
        w, b = model.weights[li], model.biases[li]
        layer = []
        for i in range(w.shape[0]):
            vals = [abs(float(v)) for v in w[i]] + [abs(float(b[i]))]
            if p == 1:
                layer.append(sum(vals))
            else:
                layer.append(math.sqrt(sum(v * v for v in vals)))
        out.append(np.array(layer))
    return out


def oracle_mask(scores, sparsity, prev_mask, min_keep):
    """Sort live groups by (score, index) and drop the prefix."""
    floors = [min_keep] * len(scores.layers) if isinstance(min_keep, int) else min_keep
    layers = []
    for layer_scores, prev, floor in zip(scores.layers, prev_mask.layers, floors):
        live = [i for i in range(len(prev)) if prev[i]]
        n_live = len(live)
        k = 0
        if n_live > floor:
            k = min(min(n_live, max(0, math.ceil(sparsity * n_live - 1e-9))), n_live - floor)
        ranked = sorted(live, key=lambda i: (layer_scores[i], i))
        dropped = set(ranked[:k])
        layers.append(np.array([prev[i] and i not in dropped for i in range(len(prev))]))
    return PruneMask(scores.arch, layers)


class TestScores:
    @pytest.mark.parametrize("p", [1, 2])
    def test_matches_scalar_oracle(self, p):
        arch = make_arch(5, 7, 4)
        model = make_model(arch, seed=21)
        got = weight_scores(model, p=p)
        for g, want in zip(got.layers, oracle_norms(model, p)):
            np.testing.assert_allclose(g, want, rtol=1e-12)

    def test_known_group(self):
        """A (3, 4) group has 2-norm 5 and 1-norm 7."""
        arch = make_arch(1, 1)
        model = ModelParams(arch, [np.array([[3.0]])], [np.array([4.0])])
        assert weight_scores(model, p=2).layers[0][0] == pytest.approx(5.0)
        assert weight_scores(model, p=1).layers[0][0] == pytest.approx(7.0)

    def test_rejects_other_norms(self, tiny_model):
        with pytest.raises(ConfigError):
            weight_scores(tiny_model, p=3)

    def test_scale_equivariance(self, tiny_model):
        """Scaling all weights by c scales every score by c, so masks agree."""
        scaled = tiny_model.copy()
        for arr in scaled.weights + scaled.biases:
            arr *= 3.5
        a = weight_scores(tiny_model)
        b = weight_scores(scaled)
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_allclose(lb, 3.5 * la, rtol=1e-12)


class TestNearestRank:
    @pytest.mark.parametrize(
        "n,frac,want",
        [
            (10, 0.0, 0),
            (10, 0.1, 1),
            (10, 0.25, 3),
            (10, 0.5, 5),
            (10, 1.0, 10),
            (3, 0.5, 2),
            (1, 0.99, 1),
            (0, 0.5, 0),
            (1, 1e-9, 0),
        ],
    )
    def test_examples(self, n, frac, want):
        assert nearest_rank(n, frac) == want

    def test_float_fuzz_guard(self):
        # 0.1 * 3 is slightly above 0.3 in binary; the epsilon keeps rank at ceil
        assert nearest_rank(10, 0.1 * 3) == 3

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigError):
            nearest_rank(10, 1.5)

    @given(st.integers(0, 500), st.floats(0.0, 1.0, allow_nan=False))
    def test_bounds(self, n, frac):
        r = nearest_rank(n, frac)
        assert 0 <= r <= n
        if frac > 0 and n > 0:
            assert r >= 1 or frac * n <= pruning._RANK_EPS


class TestPruneCount:
    def test_floor_blocks_pruning(self):
        assert prune_count(5, 0.9, 5) == 0
        assert prune_count(5, 0.9, 4) == 1

    def test_plain_case(self):
        assert prune_count(10, 0.1, 1) == 1
        assert prune_count(10, 0.95, 1) == 9

    @given(st.integers(0, 200), st.floats(0.0, 1.0, allow_nan=False), st.integers(0, 50))
    def test_never_below_floor(self, n_live, frac, floor):
        k = prune_count(n_live, frac, floor)
        assert 0 <= k <= n_live
        assert n_live - k >= min(floor, n_live)


class TestComputeMask:
    def _scores(self, arch, layers):
        return ScoreVector(arch, layers)

    def test_fixed_example(self):
        """Scores 5,1,4,1,3 at 40 percent prune the two lowest, tie on index."""
        arch = make_arch(1, 5)
        scores = self._scores(arch, [np.array([5.0, 1.0, 4.0, 1.0, 3.0])])
        got = compute_mask(scores, 0.4, PruneMask.ones(arch))
        np.testing.assert_array_equal(got.layers[0], [True, False, True, False, True])

    def test_tie_at_cut_drops_lower_index(self):
        arch = make_arch(1, 4)
        scores = self._scores(arch, [np.array([2.0, 2.0, 2.0, 2.0])])
        got = compute_mask(scores, 0.5, PruneMask.ones(arch))
        np.testing.assert_array_equal(got.layers[0], [False, False, True, True])

    def test_increment_applies_to_live_only(self):
        arch = make_arch(1, 10)
        scores = self._scores(arch, [np.arange(10.0)])
        first = compute_mask(scores, 0.5, PruneMask.ones(arch))
        assert first.keep_counts() == [5]
        second = compute_mask(scores, 0.5, first)
        # half of the 5 live groups, nearest rank -> ceil(2.5) = 3 pruned
        assert second.keep_counts() == [2]

    def test_respects_min_keep_floor(self):
        arch = make_arch(1, 10)
        scores = self._scores(arch, [np.arange(10.0)])
        got = compute_mask(scores, 0.99, PruneMask.ones(arch), min_keep=4)
        assert got.keep_counts() == [4]
        np.testing.assert_array_equal(np.flatnonzero(got.layers[0]), [6, 7, 8, 9])

    def test_per_layer_min_keep(self):
        arch = make_arch(1, 6, 4)
        scores = self._scores(arch, [np.arange(6.0), np.arange(4.0)])
        got = compute_mask(scores, 0.9, PruneMask.ones(arch), min_keep=[2, 4])
        assert got.keep_counts() == [2, 4]

    def test_rejects_full_sparsity(self, tiny_arch, tiny_model):
        with pytest.raises(ConfigError):
            compute_mask(weight_scores(tiny_model), 1.0, PruneMask.ones(tiny_arch))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_sort_then_cut_oracle(self, data):
        dims = data.draw(st.lists(st.integers(1, 9), min_size=2, max_size=4))
        arch = make_arch(*dims)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        scores = ScoreVector(arch, [rng.random(g) for g in arch.groups])
        prev = random_mask(arch, rng)
        sparsity = data.draw(st.floats(0.0, 0.95))
        got = compute_mask(scores, sparsity, prev, min_keep=1)
        want = oracle_mask(scores, sparsity, prev, 1)
        assert got == want

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_monotone_and_subset(self, data):
        dims = data.draw(st.lists(st.integers(2, 8), min_size=2, max_size=3))
        arch = make_arch(*dims)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        mask = PruneMask.ones(arch)
        for _ in range(data.draw(st.integers(1, 4))):
            scores = ScoreVector(arch, [rng.random(g) for g in arch.groups])
            nxt = compute_mask(scores, data.draw(st.floats(0.0, 0.6)), mask)
            assert nxt.issubset(mask)
            for keep, floor_n in zip(nxt.keep_counts(), arch.groups):
                assert keep >= min(1, floor_n)
            mask = nxt

    def test_sparsity_accounting(self):
        """Each layer loses exactly prune_count(live, frac, floor) groups."""
        arch = make_arch(3, 12, 7, 5)
        rng = np.random.default_rng(0)
        scores = ScoreVector(arch, [rng.random(g) for g in arch.groups])
        prev = random_mask(arch, rng)
        frac = 0.3
        got = compute_mask(scores, frac, prev, min_keep=1)
        for keep, prev_layer in zip(got.keep_counts(), prev.layers):
            live = int(prev_layer.sum())
            assert keep == live - prune_count(live, frac, 1)

    def test_scale_invariance_of_mask(self, rng):
        """Masks depend on score order only, so scaling scores changes nothing."""
        arch = make_arch(2, 9, 4)
        base = [rng.random(g) for g in arch.groups]
        a = compute_mask(ScoreVector(arch, base), 0.4, PruneMask.ones(arch))
        b = compute_mask(ScoreVector(arch, [7.3 * l for l in base]), 0.4, PruneMask.ones(arch))
        assert a == b


class TestZeroPruned:
    """Zeroing only the pruned rows gives the bytes of multiplying the whole
    layer by its mask bits."""

    @staticmethod
    def reference(model, mask):
        for w, b, bits in zip(model.weights, model.biases, mask.layers):
            w *= bits[:, None]
            b *= bits

    @pytest.mark.parametrize("case", ["random", "all_live", "hidden_fully_pruned"])
    def test_bytes_match_whole_layer_multiply(self, case, rng):
        arch = make_arch(6, 12, 4)
        model = make_model(arch, seed=40)
        special = [-2.5, -0.0, np.inf, -np.inf, np.nan]
        for w, b in zip(model.weights, model.biases):
            for r in range(w.shape[0]):
                w[r, r % w.shape[1]] = special[r % len(special)]
                w[r, -1] = -abs(w[r, -1])
            b[...] = [special[r % len(special)] for r in range(b.size)]
        mask = {
            "random": random_mask(arch, rng, keep_prob=0.5),
            "all_live": PruneMask.ones(arch),
            "hidden_fully_pruned": PruneMask(arch, [np.zeros(12, bool), np.ones(4, bool)]),
        }[case]
        want = model.copy()
        with np.errstate(invalid="ignore"):  # inf * 0.0 is NaN on both sides
            self.reference(want, mask)
            zero_pruned(model, mask)
        assert [a.tobytes() for a in model.weights + model.biases] == [
            a.tobytes() for a in want.weights + want.biases
        ]


class TestApplyMask:
    def test_zeroes_rows_and_biases(self, tiny_arch, rng):
        model = make_model(tiny_arch, seed=30)
        for b in model.biases:
            b[...] = rng.normal(size=b.shape)
        mask = random_mask(tiny_arch, rng)
        out = apply_mask(model, mask)
        for li, keep in enumerate(mask.layers):
            np.testing.assert_array_equal(out.weights[li][~keep], 0.0)
            np.testing.assert_array_equal(out.biases[li][~keep], 0.0)
            np.testing.assert_array_equal(out.weights[li][keep], model.weights[li][keep])

    def test_idempotent(self, tiny_arch, rng):
        model = make_model(tiny_arch, seed=31)
        mask = random_mask(tiny_arch, rng)
        once = apply_mask(model, mask)
        twice = apply_mask(once, mask)
        assert same_params(once, twice)

    def test_does_not_mutate_input(self, tiny_arch, rng):
        model = make_model(tiny_arch, seed=32)
        before = model.copy()
        apply_mask(model, random_mask(tiny_arch, rng))
        assert same_params(model, before)
