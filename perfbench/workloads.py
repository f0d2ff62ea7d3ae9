"""The benchmark's three workloads: seeded inputs and one iteration each.

Every workload is a closed loop with one client: each call starts only after
the previous one has returned.  CLI verbs go through ``regwave.cli.main(argv)``
in-process, so a call's time excludes interpreter start-up, which ``setup_s``
measures on its own.

A workload object is used in this order: ``prepare(inputs_dir)`` writes the
seeded inputs once, then ``iterate()`` runs one iteration with the current
directory set to a fresh, empty output directory, and ``check`` / ``digest``
inspect what that iteration produced.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

INTERVAL = 10.0


@dataclass(frozen=True)
class Call:
    """One timed call into the program.

    samples counts the register samples the call reads or writes; in_iter
    marks the calls that make up the workload's ``iter_s``.
    """

    verb: str
    seconds: float
    ok: bool
    samples: int
    in_iter: bool = True
    error: str = ""


def run_cli(argv: list[str], samples: int, sink, in_iter: bool = True) -> Call:
    """Run one CLI verb in-process; a non-zero exit or an exception fails it."""
    from regwave import cli

    err = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
            error = ""
        except SystemExit as exc:  # argparse refuses the arguments
            code = exc.code if isinstance(exc.code, int) else 2
            error = ""
        except Exception as exc:  # the loop must go on; the failure is counted
            code = None
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    if code != 0 and not error:
        lines = err.getvalue().strip().splitlines()
        error = f"exit {code}: {lines[-1] if lines else ''}"
    return Call(argv[0], seconds, code == 0, samples if code == 0 else 0, in_iter, error)


def write_register_csv(path: Path, values: np.ndarray) -> None:
    """Write a cumulative counter in the ``tick,timestamp_s,value`` format."""
    rows = [checks.REGISTER_HEADER]
    rows += [f"{t},{t * INTERVAL!r},{int(v)}" for t, v in enumerate(values, start=1)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def _digest_dir(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


class FleetDay:
    """The README round trip on one generated day of a two-switch fleet.

    Simulating 8 640 ticks of four ports and exporting 32 CSVs is almost all
    the work; the four verbs on the server port's tx_bytes are light.  The
    drift exercises the simulator's ramp integration and the dropout its
    second volume pass.  All three anomalies sit on the compared port, and the
    dropout keeps at least a fifth of the traffic, so no window is all zero.
    """

    name = "fleet-day"
    window = 256
    depth = 1
    registers = 32  # 2 switches x 2 ports x 8 counters

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.ticks = 600 if tiny else 8640
        self.scenario = Path()

    def prepare(self, inputs: Path) -> None:
        self.scenario = inputs / "fleet-day.scn"
        self.scenario.write_text(fleet_day_scenario(self.seed, self.ticks))

    @property
    def windows(self) -> int:
        return (self.ticks - 1) // self.window

    def iterate(self, sink):
        n = self.ticks - 1
        reg = "sim/s1_p1_tx_bytes.csv"
        calls = [
            run_cli(["simulate", os.path.relpath(self.scenario), "--seed", str(self.seed),
                     "--out", "sim"], self.registers * self.ticks, sink),
            run_cli(["reduce", reg, "--out", "reduced.json"], n, sink),
            run_cli(["synthesize", "reduced.json", "--out", "rebuilt.csv"],
                    self.windows * self.window, sink),
            run_cli(["detect", reg, "--out", "detection"], n, sink),
            run_cli(["compare", reg, "reduced.json", "--out", "comparison"], n, sink),
        ]
        return calls, Path.cwd()

    def check(self, calls: list[Call], out: Path) -> list[tuple[float, float]]:
        checks.require_ok(calls)
        sim = sorted((out / "sim").glob("*.csv"))
        if len(sim) != self.registers:
            raise checks.CheckFailed(f"simulate wrote {len(sim)} CSVs, not {self.registers}")
        for path in sim:
            checks.register_csv(path, self.ticks)
        checks.reduced_file(out / "reduced.json", self.windows, self.window, self.depth)
        checks.series_csv(out / "rebuilt.csv", self.windows * self.window)
        checks.detection_dir(out / "detection", self.ticks - 1)
        return checks.comparison(out / "comparison", out / "reduced.json", self.windows)

    digest = staticmethod(_digest_dir)


def fleet_day_scenario(seed: int, ticks: int) -> str:
    """Scenario text for ``ticks`` polls: two switches, two ports each.

    Every time is a seeded fraction of the duration, so the tiny size keeps
    the same shape; the structure (bursts, anomalies) never depends on the
    seed, so neither does the simulator's work per tick.
    """
    rng = np.random.default_rng(seed)
    duration = int(ticks * INTERVAL)

    def at(lo: float, hi: float) -> int:
        return max(1, int(rng.uniform(lo, hi) * duration))

    out = [
        f"[scenario]\nname = fleet-day\nduration = {duration}\ninterval = {INTERVAL:g}\n",
        "[switch]\nid = s1\nports = 1, 2\nserver_ports = 1\n",
        "[switch]\nid = s2\nports = 1, 2\n",
    ]
    for switch, port, lo, hi, jitter, n_bursts in (
        ("s1", 1, 300_000, 500_000, 0.05, 2),
        ("s1", 2, 50_000, 150_000, 0.03, 1),
        ("s2", 1, 100_000, 250_000, 0.04, 1),
        ("s2", 2, 20_000, 80_000, 0.02, 1),
    ):
        text = (
            f"[profile]\nswitch = {switch}\nport = {port}\n"
            f"base_rate = {int(rng.uniform(lo, hi))}\njitter = {jitter}\n"
        )
        for k in range(n_bursts):
            start = at(0.05 + 0.45 * k, 0.45 + 0.45 * k)
            text += f"burst = {start}, {at(0.007, 0.02)}, {rng.uniform(1.5, 2.5):.3f}\n"
        out.append(text)
    for kind, lo, hi, length, magnitude in (
        ("spike", 0.10, 0.25, (0.002, 0.007), rng.uniform(6.0, 12.0)),
        ("dropout", 0.40, 0.55, (0.007, 0.02), rng.uniform(0.2, 0.5)),
        ("drift", 0.70, 0.80, (0.02, 0.04), rng.uniform(2.0, 4.0)),
    ):
        out.append(
            f"[anomaly]\nkind = {kind}\nswitch = s1\nport = 1\nt0 = {at(lo, hi)}\n"
            f"duration = {at(*length)}\nmagnitude = {magnitude:.3f}\n"
        )
    return "\n".join(out)


class Register10Day:
    """Ten days of two registers, generated here and run through four verbs.

    No simulation: the work is the window kernels (db4, depth 3, 337 windows),
    the per-window Gaussian fits of compare, and file I/O, including about
    1 350 small plot CSVs per compare.

    - ``traffic.csv`` is a byte counter with a spike, a dropout dip to at
      least a fifth of the rate, and a drift that ramps up and holds.
    - ``errors.csv`` is an error counter that never moves, like every error
      register ``simulate`` exports.  Compare refuses it today (PRD is
      undefined for an all-zero reference), and the benchmark counts that
      failure instead of leaving the register out.

    ``iter_s`` times the traffic register's four verbs only; the zero
    register's calls are timed per verb and counted in ``samples_per_s`` and
    the failure ratio, so fixing its compare cannot read as a slowdown.
    """

    name = "register-10day"
    window = 256
    depth = 3
    registers = ("traffic", "errors")

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.deltas = 2048 if tiny else 86_400
        self.train = 512 if tiny else 8640
        self.inputs = Path()

    @property
    def windows(self) -> int:
        return self.deltas // self.window

    def prepare(self, inputs: Path) -> None:
        self.inputs = inputs
        traffic, errors = register_10day(self.seed, self.deltas)
        for name, values in zip(self.registers, (traffic, errors)):
            path = inputs / f"{name}.csv"
            write_register_csv(path, values)
            checks.register_csv(path, self.deltas + 1)

    def iterate(self, sink):
        n, synth = self.deltas, self.windows * self.window
        calls = []
        for name in self.registers:
            # Relative paths keep the files that record them identical across runs.
            src = os.path.relpath(self.inputs / f"{name}.csv")
            red = f"{name}.reduced.json"
            traffic = name == "traffic"
            calls += [
                run_cli(["reduce", src, "--family", "db4", "--depth", str(self.depth),
                         "--window", str(self.window), "--out", red], n, sink, traffic),
                run_cli(["synthesize", red, "--out", f"{name}.synth.csv"],
                        synth, sink, traffic),
                run_cli(["detect", src, "--train", str(self.train), "--out", f"{name}.detect"],
                        n, sink, traffic),
                run_cli(["compare", src, red, "--out", f"{name}.compare"], n, sink, traffic),
            ]
        return calls, Path.cwd()

    def check(self, calls: list[Call], out: Path) -> list[tuple[float, float]]:
        quality = []
        for name, verbs in zip(self.registers, (calls[:4], calls[4:])):
            ok = {c.verb for c in verbs if c.ok}
            red = out / f"{name}.reduced.json"
            if "reduce" in ok:
                checks.reduced_file(red, self.windows, self.window, self.depth)
            if "synthesize" in ok:
                checks.series_csv(out / f"{name}.synth.csv", self.windows * self.window)
            if "detect" in ok:
                checks.detection_dir(out / f"{name}.detect", self.deltas)
            if "compare" in ok:
                quality += checks.comparison(out / f"{name}.compare", red, self.windows)
        checks.require_ok([c for c in calls if c.in_iter])
        return quality

    digest = staticmethod(_digest_dir)


def register_10day(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative traffic and error counters of n + 1 polls."""
    rng = np.random.default_rng(seed)
    per_interval = rng.uniform(200_000, 600_000) * INTERVAL
    factor = np.ones(n)

    def span(lo: float, hi: float, length: tuple[float, float]) -> slice:
        start = int(rng.uniform(lo, hi) * n)
        return slice(start, start + 1 + int(rng.uniform(*length) * n))

    factor[span(0.10, 0.30, (0.002, 0.006))] *= rng.uniform(5.0, 10.0)
    factor[span(0.40, 0.55, (0.005, 0.015))] *= rng.uniform(0.2, 0.5)
    ramp, level = span(0.70, 0.80, (0.01, 0.03)), rng.uniform(2.0, 4.0)
    factor[ramp] *= np.linspace(1.0, level, ramp.stop - ramp.start, endpoint=False)
    factor[ramp.stop :] *= level
    jitter = np.maximum(0.0, 1.0 + 0.05 * rng.standard_normal(n))
    volume = np.rint(per_interval * factor * jitter).astype(np.int64)
    traffic = np.concatenate(([0], np.cumsum(volume)))
    return traffic, np.zeros(n + 1, dtype=np.int64)


class PreservationSuite:
    """The 22 bundled preservation cases through ``suite.run_suite``.

    Many small simulations (1 281 ticks, one port) and one depth-1 db2 window
    per case, with no file I/O: call overhead on short inputs rather than
    long series.  Seed s offsets every case's seed by 1000 s, so seed 0 is
    acceptance criterion 6.
    """

    name = "preservation-suite"
    samples_per_case = 2 * 1280  # two byte registers of 1 280 deltas each

    def __init__(self, seed: int, tiny: bool = False):
        from regwave import suite

        cases = suite.preservation_suite()
        if tiny:
            cases = [cases[0], cases[10]]
        self.seed = seed
        self.cases = [dataclasses.replace(c, seed=c.seed + 1000 * seed) for c in cases]

    def prepare(self, inputs: Path) -> None:
        pass

    def iterate(self, sink):
        from regwave import suite

        calls, results = [], []
        for case in self.cases:
            t0 = time.perf_counter()
            try:
                results += suite.run_suite([case])
                ok, error = True, ""
            except Exception as exc:  # the loop must go on; the failure is counted
                ok, error = False, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
            calls.append(Call("case", seconds, ok, self.samples_per_case if ok else 0,
                              error=error))
        return calls, results

    def check(self, calls: list[Call], results) -> list[tuple[float, float]]:
        checks.require_ok(calls)
        return checks.suite_results(results, spikes_must_hold=self.seed == 0)

    @staticmethod
    def digest(results) -> str:
        return hashlib.sha256(checks.suite_text(results).encode()).hexdigest()


WORKLOADS = {w.name: w for w in (FleetDay, Register10Day, PreservationSuite)}


@contextlib.contextmanager
def inside(path: Path):
    """Run the body with ``path`` as the current directory (``contextlib.chdir``
    needs Python 3.11; the project supports 3.10)."""
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)
