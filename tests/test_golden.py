"""Byte-identity guard for the simulator, the CSV export, reduce and compare.

The simulate digests below were recorded on the per-tick object simulator
that the columnar kernel replaced.  They must never be regenerated: if one
moves, the arithmetic changed (a volume sum rounded differently, a jitter
draw moved, a float printed differently), and the fix belongs in the code.

The two spike-demo digests moved once, when the analysis step and the
energies stopped calling BLAS: the old values held only under OpenBLAS's
AVX-512 kernel, and other kernels rounded the dot products differently.
Every digest now follows from numpy's own elementwise operations and
pairwise sums, so none depends on the BLAS library or the CPU it selects.
"""

import contextlib
import hashlib
import importlib.resources
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import regwave
from regwave.cli import main

DATA = Path(__file__).parent / "data"

SIMULATE_DIGESTS = {
    ("golden-fleet.scn", 0):
        "87984ceba6330571d077e3087162ddb26da919d42942329ea92a759aafb43524",
    ("golden-fleet.scn", 1):
        "cc3ed611e73ae232fc8bf2ac5e228a9e5b5b3149881cfae3f57b59401437460f",
    ("golden-fleet.scn", 2):
        "35fffa865f22978c3aef8f72d06f10214a3eb0d756b3233b6d5ae7a7e7bf2e1f",
    ("video-42min.scn", 0):
        "3d110a22f7111fcbf6379aba4c23321b3e54c6171d6450ceb3a8dc6fc66b1af2",
    ("video-42min.scn", 1):
        "a47a0a647fc22e41c3183baf1a7e4c8c17d876b19e58aa949ee83ff6e50ee736",
    ("video-42min.scn", 2):
        "4d87062958679025fdfb4428312ed772804d2fc7c0a76f8d200af0b0b9143701",
    ("spike-demo.scn", 0):
        "ee138a8a43ad092afdd7467b32da0af1c138535c273a7df2fab540670d6b3c6e",
    ("spike-demo.scn", 1):
        "5ebe4e8d39f38dcac161def02431224df9b3d7b82d673d38fa208a0f0a221237",
    ("spike-demo.scn", 2):
        "54e3788ad976553679c4105181d0e5c6d2dfc54ad96a47039f8a5636324413b1",
}

# The fixture polled every 0.1 s: its timestamps are not integral
# (0.30000000000000004), which no export at 10 s exercises.  Recorded on the
# row-at-a-time f-string writer that the CSV text kernel replaced.
SIMULATE_INTERVAL_DIGESTS = {
    ("golden-fleet.scn", 0, "0.1"):
        "22f9d111a9867c5d1b78683010716a8df81602d6ab308687dabcef4abc3a2a75",
}

SPIKE_DEMO_REDUCED = "0835fbad5f8fa7cacb88616e59443ae8f396270ccc3880bd1780f28804337295"
SPIKE_DEMO_REPORT = "ba9f311f0fdc67192a9727c93c872e53a18822cd6d4e18f5fbee1e73c748b84f"


def _scenario_path(name):
    if (DATA / name).exists():
        return contextlib.nullcontext(DATA / name)
    return importlib.resources.as_file(
        importlib.resources.files("regwave") / "scenarios" / name
    )


def tree_digest(directory: Path) -> str:
    """sha256 over every file of a directory: name, size, bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        data = path.read_bytes()
        h.update(f"{path.name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def simulate_digest(name: str, seed: int, out: Path, *flags: str) -> str:
    with _scenario_path(name) as scn:
        argv = ["simulate", str(scn), "--seed", str(seed), "--out", str(out), *flags]
        assert main(argv) == 0
    return tree_digest(out)


def spike_demo_commands(scn: Path) -> list[list[str]]:
    """Simulate the spike demo at seed 2, then reduce and compare one
    register, with paths relative to the working directory so the
    documents' source fields do not depend on it."""
    register = "sim/s1_p1_tx_bytes.csv"
    return [
        ["simulate", str(scn), "--seed", "2", "--out", "sim"],
        ["reduce", register, "--out", "red.json"],
        ["compare", register, "red.json", "--train", "512", "--quantile", "0.001",
         "--out", "cmp"],
    ]


def spike_demo_outputs(workdir: Path) -> tuple[str, str]:
    return file_digest(workdir / "red.json"), file_digest(workdir / "cmp" / "report.json")


def spike_demo_digests(workdir: Path, monkeypatch) -> tuple[str, str]:
    monkeypatch.chdir(workdir)
    with _scenario_path("spike-demo.scn") as scn:
        for argv in spike_demo_commands(scn):
            assert main(argv) == 0
    return spike_demo_outputs(workdir)


@pytest.mark.parametrize("name,seed", sorted(SIMULATE_DIGESTS))
def test_simulate_exports_are_byte_identical(name, seed, tmp_path):
    digest = simulate_digest(name, seed, tmp_path / "sim")
    assert digest == SIMULATE_DIGESTS[(name, seed)]


@pytest.mark.parametrize("name,seed,interval", sorted(SIMULATE_INTERVAL_DIGESTS))
def test_simulate_exports_at_other_intervals_are_byte_identical(
    name, seed, interval, tmp_path
):
    digest = simulate_digest(name, seed, tmp_path / "sim", "--interval", interval)
    assert digest == SIMULATE_INTERVAL_DIGESTS[(name, seed, interval)]


def test_spike_demo_reduce_and_compare_are_byte_identical(tmp_path, monkeypatch):
    reduced, report = spike_demo_digests(tmp_path, monkeypatch)
    assert reduced == SPIKE_DEMO_REDUCED
    assert report == SPIKE_DEMO_REPORT


@pytest.mark.parametrize("coretype", ("Haswell", "Prescott"))
def test_spike_demo_digests_hold_under_other_openblas_kernels(coretype, tmp_path):
    # OpenBLAS picks its kernel once, when it loads, so the pipeline runs in
    # a child process with OPENBLAS_CORETYPE set in its environment only.
    # Any other BLAS ignores the variable; the child then repeats the
    # in-process run above.
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype)
    src = str(Path(regwave.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    child = (
        "import json, sys\n"
        "from regwave.cli import main\n"
        "sys.exit(0 if all(main(a) == 0 for a in json.loads(sys.argv[1])) else 1)\n"
    )
    with _scenario_path("spike-demo.scn") as scn:
        commands = json.dumps(spike_demo_commands(scn.resolve()))
        run = subprocess.run(
            [sys.executable, "-c", child, commands],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
    assert run.returncode == 0, run.stderr
    assert spike_demo_outputs(tmp_path) == (SPIKE_DEMO_REDUCED, SPIKE_DEMO_REPORT)
