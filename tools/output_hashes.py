"""Print one SHA-256 per run config over everything a run outputs.

Each hash covers the metrics CSV, ``ledger.summary()``, the sorted ledger
entries, the ``save_model`` artifact bytes, the packed mask history,
``budget_history``, ``flagged_nodes`` and the (round, node) pairs of any
uploads left out of FedAvg as non-finite, taken from ``node_events`` (or from
``rejected_uploads`` on a tree older than that record, so the hashes stay
comparable); a run that raises hashes its error message and names the error
class after the hash.
The configs are the 4-node test config under the variants below, the README
desk config, clean and contaminated, and the benchmark's wide layout, each
with all four algorithms over both transports.  An optional argument keeps
only the names that contain it.

``tests/output_hashes.txt`` pins the ``small/*`` and ``wide/*`` lines in
tier-1.  ``--against REV`` checks every line against another revision: it
extracts ``git archive REV`` into a temporary directory, runs this script
there on that tree's ``src`` (the script uses only the public API, so older
trees run it too), prints each differing line as ``- REV`` / ``+ this tree``
and exits 1 on any difference:

    PYTHONPATH=src python3 tools/output_hashes.py --against HEAD~1 desk
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

from mpfl.config import config_from_dict
from mpfl.errors import MpflError
from mpfl.experiment import rows_to_csv, run, save_model
from mpfl.wire import pack_mask

ALGORITHMS = ("mpfl", "pruning_fl", "fedavg", "lth_central")
TRANSPORTS = ("loopback", "tcp")

SMALL = {
    "seed": 3,
    "nodes": 4,
    "final_rounds": 2,
    "arch": {"input_dim": 10, "hidden": [20], "classes": 3},
    "dataset": {"kind": "blobs", "samples": 360, "features": 10, "classes": 3},
    "training": {"lr": 0.1, "epochs_per_round": 2, "batch_size": 32},
    "pruning": {"schedule": [0.2, 0.2], "min_keep": [1, 3]},
}

# variant name -> {dotted key path: value} applied to SMALL
VARIANTS = {
    "base": {},
    "histogram-0.5": {"consensus.strategy": "histogram", "consensus.agreement": 0.5},
    "histogram-0.9": {"consensus.strategy": "histogram", "consensus.agreement": 0.9},
    "histogram-1.0": {"consensus.strategy": "histogram", "consensus.agreement": 1.0},
    "p1": {"pruning.p": 1},
    "no-final-rounds": {"final_rounds": 0},
    "no-epochs": {"training.epochs_per_round": 0},
    "one-node": {"nodes": 1},
    "no-hidden": {"arch.hidden": [], "pruning.min_keep": [3]},
    "two-hidden": {"arch.hidden": [20, 12], "pruning.min_keep": [1, 1, 3]},
    "batch-13": {"training.batch_size": 13},
    "keep-0": {"pruning.schedule": [0.5] * 3, "pruning.min_keep": 0},
    "noise-1e300": {"contamination": [{"node": 0, "kind": "noise", "sigma": 1e300}]},
    "labels": {"contamination": [{"node": 1, "kind": "labels"}]},
    "early-stop-8": {
        "nodes": 8,
        "pruning.schedule": [0.05] * 8,
        "consensus.strategy": "histogram",
        "consensus.agreement": 1.0,
    },
}

DESK = {
    "seed": 7,
    "nodes": 10,
    "final_rounds": 10,
    "arch": {"input_dim": 64, "hidden": [512], "classes": 10},
    "dataset": {"kind": "blobs", "samples": 6000, "features": 64, "classes": 10,
                "cluster_std": 5.5},
    "training": {"lr": 0.1, "epochs_per_round": 3, "batch_size": 64},
    "pruning": {"schedule": [0.1] * 5, "min_keep": [1, 10]},
}
DESK_CONTAMINATION = [{"node": 0, "kind": "noise", "sigma": 16.0}, {"node": 1, "kind": "labels"}]

# the wide_pfl_tcp benchmark layout, cut to five fine-tuning rounds
WIDE = {
    "seed": 7,
    "nodes": 10,
    "final_rounds": 5,
    "arch": {"input_dim": 64, "hidden": [2048], "classes": 10},
    "dataset": {"kind": "blobs", "samples": 130, "features": 64, "classes": 10,
                "cluster_std": 3.5},
    "training": {"lr": 0.1, "epochs_per_round": 1, "batch_size": 64},
    "pruning": {"schedule": [0.1] * 5, "min_keep": [1, 10]},
}


def _with(base: dict, changes: dict) -> dict:
    raw = copy.deepcopy(base)
    for path, value in changes.items():
        *parents, leaf = path.split(".")
        section = raw
        for key in parents:
            section = section.setdefault(key, {})
        section[leaf] = value
    return raw


def configs():
    """(name, raw config dict) for every run, in a fixed order."""
    bases = {f"small/{name}": _with(SMALL, changes) for name, changes in VARIANTS.items()}
    bases["desk/clean"] = DESK
    bases["desk/contaminated"] = _with(DESK, {"contamination": DESK_CONTAMINATION})
    bases["wide"] = WIDE
    for name, base in bases.items():
        for alg in ALGORITHMS:
            for transport in TRANSPORTS:
                raw = _with(base, {"algorithm": alg, "transport.kind": transport})
                yield f"{name}/{alg}/{transport}", raw


def output_hash(raw: dict, scratch: Path) -> str:
    h = hashlib.sha256()
    try:
        res = run(config_from_dict(raw))
    except MpflError as e:
        h.update(f"error {type(e).__name__}: {e}".encode())
        return f"{h.hexdigest()} {type(e).__name__}"
    h.update(rows_to_csv(res.rows).encode())
    h.update(repr(res.ledger.summary()).encode())
    entries = sorted(
        (e.node_id, e.round_idx, e.direction, e.category, e.bits) for e in res.ledger.entries
    )
    h.update(repr(entries).encode())
    artifact = scratch / "model.mpfm"
    save_model(artifact, res.final_model, res.final_mask)
    h.update(artifact.read_bytes())
    for mask in res.mask_history:
        h.update(pack_mask(mask))
    h.update(repr(res.budget_history).encode())
    h.update(repr(res.flagged_nodes).encode())
    events = getattr(res, "node_events", None)
    if events is None:
        rejected = getattr(res, "rejected_uploads", None)
    else:
        rejected = [(r, node) for r, node, cause in events if cause == "non_finite"]
    if rejected:
        h.update(repr(rejected).encode())
    return h.hexdigest()


def hash_lines(only: str):
    """``name hash`` for each config whose name contains ``only``, in order."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, raw in configs():
            if only in name:
                yield f"{name} {output_hash(raw, Path(tmp))}"


def against(rev: str, only: str) -> int:
    """Compare this tree's lines with those of ``rev``; 1 if any differ."""
    root = Path(__file__).resolve().parents[1]
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", rev], cwd=root, capture_output=True)
        if archive.returncode:
            print(f"git archive {rev}: {archive.stderr.decode().strip()}", file=sys.stderr)
            return 2
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"))
        parent = subprocess.run([sys.executable, __file__, only], env=env, cwd=tmp,
                                stdout=subprocess.PIPE, text=True, check=True).stdout
    old = dict(line.split(" ", 1) for line in parent.splitlines())
    new = dict(line.split(" ", 1) for line in hash_lines(only))
    differ = 0
    for name in dict.fromkeys([*old, *new]):
        if old.get(name) != new.get(name):
            differ += 1
            if name in old:
                print(f"- {name} {old[name]}")
            if name in new:
                print(f"+ {name} {new[name]}")
    print(f"{differ} of {len(new.keys() | old.keys())} lines differ from {rev}")
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("only", nargs="?", default="", help="keep the names containing this")
    parser.add_argument("--against", metavar="REV",
                        help="compare every line with git revision REV; exit 1 on a difference")
    args = parser.parse_args(argv)
    if args.against:
        return against(args.against, args.only)
    for line in hash_lines(args.only):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
