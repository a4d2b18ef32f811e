"""Baseline algorithms and their agreement with the mask-voting protocol."""

import numpy as np
import pytest

from mpfl.config import config_from_dict
from mpfl.experiment import (
    build_env,
    charge_lth_upload,
    lth_upload_bits,
    run,
    run_lth_central,
    run_mpfl,
    run_pruning_fl,
)
from mpfl.pruning import apply_mask
from mpfl.wire import CAT_DATA, BandwidthLedger

from conftest import same_params


def base_raw(**extra):
    raw = {
        "seed": 11,
        "nodes": 4,
        "final_rounds": 2,
        "arch": {"input_dim": 12, "hidden": [24], "classes": 4},
        "dataset": {"kind": "blobs", "samples": 480, "features": 12, "classes": 4},
        "training": {"lr": 0.1, "epochs_per_round": 2, "batch_size": 32},
        "pruning": {"schedule": [0.2, 0.2], "min_keep": [1, 4]},
    }
    raw.update(extra)
    return raw


class TestLthArithmetic:
    def test_upload_bits_formula(self):
        # 100 rows of 8 features at 32 bits each plus an 8-bit label
        assert lth_upload_bits(100, 8, 32) == 100 * (8 * 32 + 8)

    def test_byte_per_channel_images(self):
        # 6000 images of 32*32*3 bytes: the one-shot cost of a shard
        bits = lth_upload_bits(6000, 3072, 8)
        assert bits == 6000 * (3072 * 8 + 8)
        assert bits / 8 / 2**20 == pytest.approx(17.58, abs=0.01)

    def test_charge_books_per_node(self):
        led = BandwidthLedger()
        charge_lth_upload(led, [10, 12], 4, 32)
        assert led.total_bits(category=CAT_DATA) == lth_upload_bits(10, 4, 32) + lth_upload_bits(12, 4, 32)
        assert led.per_node_bits() == {0: lth_upload_bits(10, 4, 32), 1: lth_upload_bits(12, 4, 32)}


class TestLthCentral:
    def test_only_data_bits_in_ledger(self):
        cfg = config_from_dict(base_raw(algorithm="lth_central"))
        res = run(cfg)
        s = res.ledger.summary()
        assert s["mask"] == 0
        assert s["weights"] == 0
        assert s["data"] == s["total"] > 0

    def test_rewind_restores_initial_weights(self):
        """With zero training epochs the final model is exactly the masked w0."""
        raw = base_raw(algorithm="lth_central")
        raw["training"]["epochs_per_round"] = 0
        cfg = config_from_dict(raw)
        env = build_env(cfg)
        res = run_lth_central(cfg, env)
        want = apply_mask(env.w0, res.final_mask)
        assert same_params(res.final_model, want)

    def test_mask_history_is_nested(self):
        cfg = config_from_dict(base_raw(algorithm="lth_central"))
        res = run(cfg)
        for nxt, prev in zip(res.mask_history[1:], res.mask_history):
            assert nxt.issubset(prev)
        assert res.final_mask.sparsity() > 0

    def test_row_count(self):
        cfg = config_from_dict(base_raw(algorithm="lth_central"))
        res = run(cfg)
        assert len(res.rows) == len(cfg.pruning.schedule) + 1
        assert all(r.algorithm == "lth_central" for r in res.rows)


class TestPruningFlDegenerate:
    def test_empty_schedule_equals_fedavg(self):
        """With nothing to prune the two harnesses walk the same trajectory."""
        raw = base_raw(final_rounds=3)
        raw["pruning"] = {"schedule": []}

        cfg_fed = config_from_dict(dict(raw, algorithm="fedavg"))
        cfg_pfl = config_from_dict(dict(raw, algorithm="pruning_fl"))
        res_fed = run(cfg_fed)
        res_pfl = run(cfg_pfl)

        assert same_params(res_fed.final_model, res_pfl.final_model)
        # row 1 of the fedavg run is the pre-training sync; after that the
        # accuracy traces must agree round for round
        fed_acc = [r.test_accuracy for r in res_fed.rows[1:]]
        pfl_acc = [r.test_accuracy for r in res_pfl.rows]
        assert fed_acc == pfl_acc
        assert all(r.global_sparsity == 0.0 for r in res_pfl.rows)

    def test_single_node(self):
        raw = base_raw(nodes=1, algorithm="pruning_fl")
        res = run(config_from_dict(raw))
        assert res.final_mask.sparsity() == pytest.approx(
            res.rows[-1].global_sparsity, abs=1e-6
        )
        assert res.rows[-1].test_accuracy > 0.5


class TestVotingAgreesOnSymmetricInstances:
    def test_identical_nodes_produce_identical_masks(self):
        """When every node sees the same shard with the same seed, consensus
        voting and average-then-prune must pick the same groups each round."""
        raw = base_raw()
        cfg_mpfl = config_from_dict(dict(raw, algorithm="mpfl"))
        cfg_pfl = config_from_dict(dict(raw, algorithm="pruning_fl"))

        def symmetric_env(cfg):
            env = build_env(cfg)
            env.shards = [env.shards[0]] * cfg.nodes
            env.node_seeds = [env.node_seeds[0]] * cfg.nodes
            return env

        res_mpfl = run_mpfl(cfg_mpfl, symmetric_env(cfg_mpfl))
        res_pfl = run_pruning_fl(cfg_pfl, symmetric_env(cfg_pfl))

        assert len(res_mpfl.mask_history) == len(cfg_mpfl.pruning.schedule)
        for ma, mb in zip(res_mpfl.mask_history, res_pfl.mask_history):
            assert ma == mb

    def test_sparsity_trajectories_align_across_algorithms(self):
        """The per-layer arithmetic is shared, so sparsity columns line up."""
        results = {}
        for algo in ("mpfl", "pruning_fl", "lth_central"):
            res = run(config_from_dict(base_raw(algorithm=algo)))
            results[algo] = res
        n_sched = 2
        mpfl_sp = [r.global_sparsity for r in results["mpfl"].rows[:n_sched]]
        pfl_sp = [r.global_sparsity for r in results["pruning_fl"].rows[:n_sched]]
        assert mpfl_sp == pfl_sp
        assert results["mpfl"].final_mask.sparsity() == pytest.approx(
            results["lth_central"].final_mask.sparsity()
        )


class TestBandwidthSeparation:
    def test_masks_cost_orders_of_magnitude_less(self):
        """The voting uplink must be tiny next to shipping weights around."""
        res_mpfl = run(config_from_dict(base_raw(algorithm="mpfl")))
        res_pfl = run(config_from_dict(base_raw(algorithm="pruning_fl")))
        mask_up = res_mpfl.ledger.total_bits(direction="up", category="mask")
        weights_up = res_pfl.ledger.total_bits(direction="up", category="weights")
        assert mask_up > 0
        assert mask_up < weights_up / 100
