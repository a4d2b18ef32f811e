"""Output checks for one benchmark run, computed independently of mpfl.

The expected keep counts, row counts and ledger totals follow from the config
alone: the nearest-rank pruning rule, the per-layer byte padding of masks, and
the live-groups-only weight payload described in the project README.  The
final accuracy is recomputed from the returned model with a plain numpy
forward pass.
"""

from __future__ import annotations

import json
import math

import numpy as np

_RANK_EPS = 1e-9
_LABEL_BITS = 8  # one label per sample in the centralized raw-data upload


def _layer_dims(raw: dict) -> list[tuple[int, int]]:
    """(in_dim, out_dim) of every dense layer."""
    arch = raw["arch"]
    dims = [arch["input_dim"], *arch["hidden"], arch["classes"]]
    return list(zip(dims[:-1], dims[1:]))


def keep_history(raw: dict) -> list[list[int]]:
    """Live groups per layer before the schedule and after each increment.

    Stops where the achieved sparsity reaches the schedule's target, as the
    runners do.
    """
    groups = [out for _, out in _layer_dims(raw)]
    floors = raw["pruning"].get("min_keep", 1)
    if isinstance(floors, int):
        floors = [floors] * len(groups)
    schedule = raw["pruning"]["schedule"]
    target = sum(schedule)
    keep = list(groups)
    history = [keep]
    for inc in schedule:
        nxt = []
        for live, floor in zip(keep, floors):
            cut = min(live, max(0, math.ceil(inc * live - _RANK_EPS)))
            nxt.append(live if live <= floor else live - min(cut, live - floor))
        keep = nxt
        history.append(keep)
        if 1.0 - sum(keep) / sum(groups) >= target - 1e-9:
            break
    return history


def _weight_bits(raw: dict, keep: list[int]) -> int:
    precision = raw.get("wire", {}).get("precision_bits", 32)
    return sum(k * (d_in + 1) for (d_in, _), k in zip(_layer_dims(raw), keep)) * precision


def _mask_bits(raw: dict) -> int:
    return sum(8 * math.ceil(out / 8) for _, out in _layer_dims(raw))


def expected_rows_and_bits(raw: dict, train_rows: int) -> tuple[int, int, int]:
    """(metrics rows, uplink bits, downlink bits) a correct run must report."""
    alg = raw["algorithm"]
    n = raw["nodes"]
    final = raw["final_rounds"]
    hist = keep_history(raw)
    pruned_rounds = len(hist) - 1
    dense = _weight_bits(raw, hist[0])
    if alg == "lth_central":
        features = raw["dataset"]["features"]
        raw_bits = raw["dataset"].get("raw_feature_bits", 32)
        return pruned_rounds + 1, train_rows * (features * raw_bits + _LABEL_BITS), 0
    if alg == "mpfl":
        votes = pruned_rounds * n * _mask_bits(raw)
        weights = n * _weight_bits(raw, hist[-1])
        return (
            pruned_rounds + 1 + final,
            votes + (1 + final) * weights,
            n * dense + votes + final * weights,
        )
    if alg == "pruning_fl":
        # each round's upload and broadcast are encoded against the mask the
        # round started from
        masks = hist[:-1] + [hist[-1]] * final
        moved = sum(n * _weight_bits(raw, keep) for keep in masks)
        return len(masks), moved, n * dense + moved
    raise ValueError(f"no expectation for algorithm {alg!r}")


def plain_accuracy(params, x: np.ndarray, y: np.ndarray) -> float:
    """Accuracy of a ReLU MLP, recomputed without mpfl's code."""
    h = x
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w.T + b
        if i < last:
            h = np.maximum(h, 0.0)
    return float(np.mean(h.argmax(axis=1) == y))


def fingerprint(result) -> str:
    """The metrics CSV plus the ledger summary: what reruns must reproduce."""
    from mpfl.experiment import rows_to_csv

    return rows_to_csv(result.rows) + json.dumps(result.ledger.summary(), sort_keys=True)


def check_result(raw: dict, env, result) -> list[str]:
    """Problems with one run's outputs; empty when the run is correct."""
    problems = []
    model = result.final_model
    if not all(np.all(np.isfinite(a)) for a in model.weights + model.biases):
        problems.append("final model is not finite")
    rows, up, down = expected_rows_and_bits(raw, len(env.train.y))
    if len(result.rows) != rows:
        problems.append(f"{len(result.rows)} metrics rows, expected {rows}")
    summary = result.ledger.summary()
    if (summary["up"], summary["down"]) != (up, down):
        problems.append(
            f"ledger up/down {summary['up']}/{summary['down']} bits, expected {up}/{down}"
        )
    keep = keep_history(raw)[-1]
    if result.final_mask.keep_counts() != keep:
        problems.append(f"final keep counts {result.final_mask.keep_counts()}, expected {keep}")
    for i, bits in enumerate(result.final_mask.layers):
        if np.any(model.weights[i][~bits]) or np.any(model.biases[i][~bits]):
            problems.append(f"layer {i}: a pruned group has nonzero weights")
    acc = plain_accuracy(model, env.test.x, env.test.y)
    if abs(acc - result.final_accuracy) > 0.01:
        problems.append(
            f"reported accuracy {result.final_accuracy:.4f}, final model scores {acc:.4f}"
        )
    chance = 1.0 / raw["arch"]["classes"]
    if not result.final_accuracy > 2 * chance:
        problems.append(f"final accuracy {result.final_accuracy:.4f} is not above twice chance")
    return problems
