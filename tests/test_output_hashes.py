"""The ``small/*`` and ``wide/*`` run outputs of ``tools/output_hashes.py``, pinned.

A change that alters any run output of the 4-node config or of the wide
64-2048-10 layout fails here until ``tests/output_hashes.txt`` is regenerated,
which names every changed line in the diff.  Only the wide runs send frames
of hundreds of kB, so they alone cover the codec and TCP at that size.  The
hashes depend on the BLAS kernels, so the file records the numpy and BLAS
versions it was made with.  Regenerate it with

    PYTHONPATH=src python3 tests/test_output_hashes.py
"""

import importlib.util
import tempfile
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
PINNED = Path(__file__).with_name("output_hashes.txt")
PINNED_PREFIXES = ("small/", "wide/")

_spec = importlib.util.spec_from_file_location("output_hashes", ROOT / "tools" / "output_hashes.py")
output_hashes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_hashes)


def versions() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, BLAS {blas['name']} {blas.get('version')}"


def pinned_hashes(scratch: Path) -> list[str]:
    return [
        f"{name} {output_hashes.output_hash(raw, scratch)}"
        for name, raw in output_hashes.configs()
        if name.startswith(PINNED_PREFIXES)
    ]


@pytest.fixture(scope="module")
def computed(tmp_path_factory) -> list[str]:
    return pinned_hashes(tmp_path_factory.mktemp("hashes"))


def assert_pinned(computed: list[str], prefix: str) -> None:
    lines = PINNED.read_text().splitlines()
    pinned_versions = lines[0].removeprefix("# ")
    pinned = [line for line in lines[1:] if line.startswith(prefix)]
    computed = [line for line in computed if line.startswith(prefix)]
    assert pinned, f"{PINNED.name} pins no {prefix}* line"
    changed = [f"- {line}" for line in pinned if line not in computed]
    changed += [f"+ {line}" for line in computed if line not in pinned]
    assert not changed, (
        f"hashes differ from {PINNED.name} (-) as this run computes them (+); "
        f"the file was made with {pinned_versions}, this run has {versions()}:\n"
        + "\n".join(changed)
    )


def test_small_outputs_match_the_pinned_hashes(computed):
    assert_pinned(computed, "small/")


def test_wide_outputs_match_the_pinned_hashes(computed):
    assert_pinned(computed, "wide/")


def test_loopback_and_tcp_outputs_agree(computed):
    by_name = dict(line.split(" ", 1) for line in computed)
    for name, digest in by_name.items():
        if name.endswith("/loopback"):
            assert by_name[name.removesuffix("loopback") + "tcp"] == digest, name


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        body = pinned_hashes(Path(tmp))
    PINNED.write_text(f"# {versions()}\n" + "\n".join(body) + "\n")
