"""Command line entry point: run / compare / bits / fuzz."""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

import yaml

from .config import ExperimentConfig, apply_overrides, dump_config, load_config
from .errors import ConfigError, MpflError
from .experiment import (
    RunResult,
    compare,
    rows_to_csv,
    run,
    save_model,
    summary_csv,
    write_metrics,
)
from .wire import (
    dense_bits,
    mask_bits,
    savings_ratio,
    vgg16_dense_bits,
    vgg16_mask_bits,
)

log = logging.getLogger(__name__)


def _parse_set(values: list[str]) -> dict:
    overrides = {}
    for item in values:
        if "=" not in item:
            raise ConfigError(f"--set expects key.path=value, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            overrides[key.strip()] = yaml.safe_load(raw)
        except yaml.YAMLError as e:
            raise ConfigError(f"--set {item!r}: value is not YAML: {e}") from None
    return overrides


def _load_with_overrides(path: str, args: argparse.Namespace) -> ExperimentConfig:
    cfg = load_config(path)
    overrides = _parse_set(args.set or [])
    for flag in ("seed", "nodes", "algorithm"):
        value = getattr(args, flag, None)
        if value is not None:
            overrides[flag] = value
    if overrides:
        cfg = apply_overrides(cfg, overrides)
    return cfg


def _write_run(result: RunResult, out: Path, stem: str) -> None:
    write_metrics(result.rows, out / f"{stem}_metrics.csv")
    save_model(out / f"{stem}_model.bin", result.final_model, result.final_mask)


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _load_with_overrides(args.config, args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # an unwritable -o fails before the run
    result = run(cfg)
    stem = result.rows[-1].algorithm
    _write_run(result, out, stem)
    if args.dump_config:
        dump_config(cfg, out / f"{stem}_config.yaml")
    s = result.ledger.summary()
    print(
        f"{stem}: final accuracy {result.final_accuracy:.4f}, "
        f"sparsity {result.final_mask.sparsity():.4f}, "
        f"total {s['total']} bits (mask {s['mask']}, weights {s['weights']}, "
        f"data {s['data']})"
    )
    for cause in ("diverged", "non_finite"):
        if hits := [(r, node) for r, node, c in result.node_events if c == cause]:
            print(f"{cause} (round, node): {hits}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    configs = [_load_with_overrides(p, args) for p in args.config]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # an unwritable -o fails before any run
    results, failures = compare(configs)
    runs: dict[str, int] = {}  # algorithm -> runs written; later ones get numbered stems
    labelled = []  # each run with its stem in the merged files' algorithm column
    for r in results:
        alg = r.rows[-1].algorithm
        runs[alg] = runs.get(alg, 0) + 1
        stem = alg if runs[alg] == 1 else f"{alg}-{runs[alg]}"
        _write_run(r, out, stem)
        labelled.append(replace(r, rows=[replace(row, algorithm=stem) for row in r.rows]))
    (out / "combined_metrics.csv").write_text(rows_to_csv([row for r in labelled for row in r.rows]))
    (out / "summary.csv").write_text(summary_csv(labelled))
    print(summary_csv(labelled), end="")
    for cfg, err in failures:
        print(f"FAILED {cfg.algorithm}: {err}", file=sys.stderr)
    return 1 if failures else 0


def _parse_layer_terms(items: list[str]) -> list[tuple[int, int]]:
    terms = []
    for item in items:
        try:
            groups, _, size = item.partition(":")
            terms.append((int(groups), int(size)))
        except ValueError:
            raise ConfigError(
                f"--layer expects GROUPS:SCALARS_PER_GROUP, got {item!r}"
            ) from None
    return terms


def _cmd_bits(args: argparse.Namespace) -> int:
    if args.preset == "vgg16":
        extra = [f for f, v in (("--layer", args.layer), ("--precision", args.precision)) if v]
        if extra:
            raise ConfigError(f"--preset vgg16 fixes the layers and precision; "
                              f"drop {' and '.join(extra)}")
        dense = vgg16_dense_bits()
        mask = vgg16_mask_bits()
    elif args.layer:
        terms = _parse_layer_terms(args.layer)
        dense = dense_bits(terms, args.precision or 32)
        mask = mask_bits(terms)
    else:
        raise ConfigError("bits needs --preset vgg16 or at least one --layer")
    ratio = savings_ratio(dense, mask)
    if args.json:
        print(json.dumps({"dense_bits": dense, "mask_bits": mask,
                          "savings": ratio}))
    else:
        print(f"dense bits per iteration: {dense}")
        print(f"mask bits per iteration:  {mask}")
        print(f"savings: {100.0 * ratio:.1f}%")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .fuzz import corrupt_frame_fuzz, roundtrip_fuzz

    for flag, value in (("--cases", args.cases), ("--corrupt-cases", args.corrupt_cases),
                        ("--seed", args.seed)):
        if value < 0:
            raise ConfigError(f"{flag} must be >= 0, got {value}")
    ok = roundtrip_fuzz(args.cases, args.seed)
    survived = corrupt_frame_fuzz(args.corrupt_cases, args.seed + 1)
    print(f"round-trip cases: {ok}/{args.cases} ok")
    print(f"corrupt frames handled without crashing: {survived}/{args.corrupt_cases}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpfl",
        description="Masked-pruning federated learning experiments at desk scale",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment config")
    run_p.add_argument("-c", "--config", required=True)
    run_p.add_argument("-o", "--out", default="out")
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--nodes", type=int)
    run_p.add_argument("--algorithm")
    run_p.add_argument("--set", action="append", metavar="KEY.PATH=VALUE",
                       help="override any config key (flag beats file)")
    run_p.add_argument("--dump-config", action="store_true",
                       help="write the effective config next to the metrics")
    run_p.set_defaults(fn=_cmd_run)

    cmp_p = sub.add_parser("compare", help="run several configs and merge metrics")
    cmp_p.add_argument("-c", "--config", action="append", required=True)
    cmp_p.add_argument("-o", "--out", default="out")
    cmp_p.add_argument("--seed", type=int)
    cmp_p.add_argument("--nodes", type=int)
    cmp_p.add_argument("--set", action="append", metavar="KEY.PATH=VALUE")
    cmp_p.set_defaults(fn=_cmd_compare, algorithm=None)

    bits_p = sub.add_parser("bits", help="uplink cost calculator")
    bits_p.add_argument("--preset", choices=["vgg16"])
    bits_p.add_argument("--layer", action="append", metavar="GROUPS:SCALARS",
                        help="one prunable layer, e.g. 64:577")
    bits_p.add_argument("--precision", type=int, choices=[32, 64], help="default 32")
    bits_p.add_argument("--json", action="store_true")
    bits_p.set_defaults(fn=_cmd_bits)

    fuzz_p = sub.add_parser("fuzz", help="codec round-trip and corrupt-frame fuzzing")
    fuzz_p.add_argument("--cases", type=int, default=10000)
    fuzz_p.add_argument("--corrupt-cases", type=int, default=10000)
    fuzz_p.add_argument("--seed", type=int, default=0)
    fuzz_p.set_defaults(fn=_cmd_fuzz)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (MpflError, OSError) as e:  # OSError: an output path that cannot be written
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
