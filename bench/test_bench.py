"""Tests of the benchmark itself.

    python3 -m pytest bench

Tiny configs of each workload's shape check that the tracer sees every layer
and leaves results unchanged; a short real invocation checks the output
contract against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from checks import check_result, expected_rows_and_bits, fingerprint  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, workload_config  # noqa: E402

from mpfl import experiment, nn  # noqa: E402
from mpfl.config import config_from_dict  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")

# the layers each workload's algorithm and transport run through
LAYERS = {
    "desk_mpfl": {"config", "data", "nn", "pruning", "federation", "wire", "transport", "experiment"},
    "wide_pfl_tcp": {"config", "data", "nn", "pruning", "federation", "wire", "transport", "experiment"},
    "lth_central": {"config", "data", "nn", "pruning", "experiment"},
}

# nonzero counters each workload must report, by the functions its layers call
COUNTERS = {
    "desk_mpfl": ["nn.sgd_steps", "pruning.apply_mask_calls", "wire.frames",
                  "federation.reduce_ms", "federation.local_round_s"],
    "wide_pfl_tcp": ["nn.sgd_steps", "pruning.apply_mask_calls", "wire.frames",
                     "federation.fedavg_ms", "transport.connect_ms"],
    "lth_central": ["nn.sgd_steps", "pruning.apply_mask_calls", "pruning.compute_mask_ms"],
}


def tiny(name: str) -> dict:
    """The workload's shape at a size that runs in well under a second."""
    raw = workload_config(name, 3)
    raw["arch"]["hidden"] = [32]
    raw["dataset"]["samples"] = min(raw["dataset"]["samples"], 600)
    raw["final_rounds"] = 2
    return raw


def run_once(raw: dict):
    cfg = config_from_dict(raw)
    env = experiment.build_env(cfg)
    return env, experiment.run(cfg, env)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_tiny_run_reports_every_layer(name):
    with Tracer() as tracer:
        run_once(tiny(name))
    seen = {s.name.split(".")[0] for s in tracer.spans}
    assert LAYERS[name] <= seen
    metrics = layer_metrics(tracer.spans, runs=1)
    for counter in COUNTERS[name]:
        assert metrics[counter] > 0, counter


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracer_leaves_results_unchanged(name):
    original = nn.train_sgd
    _, plain = run_once(tiny(name))
    with Tracer():
        assert nn.train_sgd is not original
        _, traced = run_once(tiny(name))
    assert nn.train_sgd is original
    assert fingerprint(traced) == fingerprint(plain)


@pytest.mark.parametrize(
    "name, train_rows, up, down",
    [
        ("desk_mpfl", 4800, 86_724_000, 91_133_600),
        ("wide_pfl_tcp", 104, 2_740_142_400, 2_789_297_600),
        ("lth_central", 4800, 9_868_800, 0),
    ],
)
def test_expected_bits_match_the_ledger_baseline(name, train_rows, up, down):
    _, exp_up, exp_down = expected_rows_and_bits(workload_config(name, 7), train_rows)
    assert (exp_up, exp_down) == (up, down)


def test_checks_pass_a_good_run_and_catch_a_broken_one():
    raw = tiny("desk_mpfl")
    raw["dataset"]["samples"] = 2000
    env, result = run_once(raw)
    assert check_result(raw, env, result) == []
    result.ledger.record(0, 1, "up", "mask", payload_bits=8)
    result.final_model.weights[0][0, 0] = float("nan")
    problems = check_result(raw, env, result)
    assert any("not finite" in p for p in problems)
    assert any("ledger" in p for p in problems)


def test_metric_names_are_well_formed_and_unique():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_invocation_prints_every_spec_metric(trace, kind):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lth_central",
         "--seed", "7", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert [(k, v["unit"]) for k, v in last["metrics"].items()] == [
        (m["name"], m["unit"]) for m in SPEC[kind]
    ]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lth_central",
         "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
