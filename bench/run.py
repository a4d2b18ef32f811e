"""Benchmark entry point: times mpfl end to end on one workload, or traces it.

    python3 bench/run.py --workload desk_mpfl --seed 7 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.  The
benchmark is one process and a closed loop: it sets up and runs one experiment at
a time, through ``mpfl.config`` -> ``mpfl.experiment.build_env`` ->
``mpfl.experiment.run``, until ``--seconds`` have passed (at least one run).
It starts no threads or sockets of its own and leaves BLAS threading as found.

Every run is checked (see ``checks.py``) and compared byte for byte with the
first run of the invocation; a run that raises, fails a check or differs is
counted as failed, not aborted on.  A TCP workload is also run once over
loopback, which must reproduce the TCP run exactly.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` untraced and traced runs alternate, the last line holds the
per-layer split, and all spans go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from checks import check_result, fingerprint
from workloads import WORKLOADS, workload_config

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# set-up is timed in a batch before every run, so its samples span the whole
# invocation: at least SETUP_REPS set-ups and SETUP_SECONDS of them per batch
SETUP_REPS = 3
SETUP_SECONDS = 0.1
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)

# metric names and units are defined once, in the benchmark spec
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def with_units(values: dict[str, float], kind: str) -> dict[str, tuple[float, str]]:
    """The spec's ``kind`` metrics in spec order, each with its unit."""
    unmatched = set(values) ^ {m["name"] for m in SPEC[kind]}
    if unmatched:
        raise ValueError(f"{kind} metrics not both measured and in BENCHMARK.json: {sorted(unmatched)}")
    return {m["name"]: (values[m["name"]], m["unit"]) for m in SPEC[kind]}


class Tally:
    """Attempted and failed runs, and the first run's outputs to compare with."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reference: str | None = None
        self.good = None  # first run that passed every check

    def record(self, label: str, raw: dict, env, result) -> None:
        problems = check_result(raw, env, result)
        fp = fingerprint(result)
        if self.reference is None:
            self.reference = fp
        elif fp != self.reference:
            problems.append("metrics CSV or ledger summary differs from the first run")
        if problems:
            self.fail(label, "; ".join(problems))
        elif self.good is None:
            self.good = result

    def fail(self, label: str, why: str) -> None:
        self.failed += 1
        print(f"FAILED {label}: {why}", file=sys.stderr)


def set_up(raw: dict):
    from mpfl import experiment
    from mpfl.config import config_from_dict

    cfg = config_from_dict(raw)
    return cfg, experiment.build_env(cfg)


def time_setups(raw: dict, samples: list[float]) -> None:
    """Append the times of one batch of back-to-back set-ups."""
    reps, spent = 0, 0.0
    while reps < SETUP_REPS or spent < SETUP_SECONDS:
        t0 = time.perf_counter()
        set_up(raw)
        samples.append(time.perf_counter() - t0)
        reps, spent = reps + 1, spent + samples[-1]


def timed_run(raw: dict, tally: Tally, label: str) -> tuple[float, float, object]:
    """Set up and run once: (wall s, process CPU s, result or None)."""
    from mpfl import experiment

    cfg, env = set_up(raw)
    tally.attempted += 1
    result = None
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        result = experiment.run(cfg, env)
    except Exception:
        tally.fail(label, traceback.format_exc())
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if result is not None:
        tally.record(label, raw, env, result)
    return wall, cpu, result


def tail(samples: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    out = f"median {statistics.median(samples):.6g} (n={n})"
    ranked = sorted(samples)
    beyond = [p for p in TAIL_PERCENTILES if n * (1 - p / 100) >= 10]
    if beyond:
        p = beyond[-1]
        out += f", p{p:g} {ranked[math.ceil(p / 100 * n) - 1]:.6g}"
    return out


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        **{v: os.environ.get(v) for v in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[Tally, dict]:
    """Run the closed loop and return the tally and the reported metrics."""
    import mpfl.experiment  # noqa: F401  import before timing set-up
    from spans import Tracer, layer_metrics, write_spans

    raw = workload_config(workload, seed)
    tally = Tally()
    tracer = Tracer()
    setups, walls, cpus, traced_walls, flagged = [], [], [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        time_setups(raw, setups)
        wall, cpu, _ = timed_run(raw, tally, f"run {len(walls) + 1}")
        walls.append(wall)
        cpus.append(cpu)
        print(f"run {len(walls)}: {wall:.3f} s wall, {cpu:.3f} s cpu", flush=True)
        if trace:
            with tracer:
                wall, _, result = timed_run(raw, tally, f"traced run {len(traced_walls) + 1}")
            traced_walls.append(wall)
            flagged.append(len(result.flagged_nodes) if result is not None else 0)
            print(f"traced run {len(traced_walls)}: {wall:.3f} s wall", flush=True)

    if raw.get("transport", {}).get("kind") == "tcp":
        parity = copy.deepcopy(raw)
        parity["transport"] = {"kind": "loopback"}
        failed = tally.failed
        timed_run(parity, tally, "loopback parity run")
        print(f"loopback/TCP parity: {'ok' if tally.failed == failed else 'MISMATCH'}")

    if trace:
        metrics = layer_metrics(tracer.spans, len(traced_walls))
        metrics["federation.flagged_nodes"] = statistics.median(flagged)
        metrics["experiment.tracing_overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(walls) - 1.0
        )
        write_spans(tracer.spans, BENCH / "out" / f"spans-{workload}-seed{seed}.jsonl")
        return tally, with_units(metrics, "per_layer")

    summary = tally.good.ledger.summary() if tally.good else {"up": 0, "down": 0, "total": 0}
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    for name, samples in (("run_s", walls), ("cpu_s", cpus), ("setup_s", setups)):
        print(f"{name}: {tail(samples)}")
    # printed only: both read 0 when all is well, and a metric must not
    print(f"{'downlink_bits':34s} {summary['down']:>16d} bit")
    print(f"{'failed_frac':34s} {tally.failed / tally.attempted:>16.6g} fraction"
          f" ({tally.failed}/{tally.attempted})")
    metrics = {
        "run_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": peak_rss,
        "final_accuracy": tally.good.final_accuracy if tally.good else 0.0,
        "uplink_bits": summary["up"],
        "total_bits": summary["total"],
    }
    return tally, with_units(metrics, "end_to_end")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "mpfl" / "__init__.py").is_file():
        print(f"run.py: no mpfl package under {src}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("machine " + json.dumps(machine_facts()))
    tally, metrics = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
