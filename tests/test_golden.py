"""Byte-identity guard for the simulator, the CSV export, reduce and compare.

The digests below were recorded on the per-tick object simulator that the
columnar kernel replaced.  They must never be regenerated: if one moves,
the arithmetic changed (a volume sum rounded differently, a jitter draw
moved, a float printed differently), and the fix belongs in the code.
"""

import contextlib
import hashlib
import importlib.resources
from pathlib import Path

import pytest

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

SPIKE_DEMO_REDUCED = "6b7bff7abee0441db9c714c75f371622059c92cc9b339706279a05fc577831b6"
SPIKE_DEMO_REPORT = "41b3835cbc00b7cbbcd325d0161ae5dc2e5a226f4fc6a5ff131e1dac5063ba82"


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


def spike_demo_digests(workdir: Path, monkeypatch) -> tuple[str, str]:
    """Reduce and compare the spike demo at seed 2, with paths relative to
    workdir so the documents' source fields do not depend on it."""
    monkeypatch.chdir(workdir)
    with _scenario_path("spike-demo.scn") as scn:
        assert main(["simulate", str(scn), "--seed", "2", "--out", "sim"]) == 0
    register = "sim/s1_p1_tx_bytes.csv"
    assert main(["reduce", register, "--out", "red.json"]) == 0
    assert main(
        ["compare", register, "red.json", "--train", "512", "--quantile", "0.001",
         "--out", "cmp"]
    ) == 0
    report = workdir / "cmp" / "report.json"
    return file_digest(workdir / "red.json"), file_digest(report)


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
