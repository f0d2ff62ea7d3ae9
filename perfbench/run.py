"""Run one benchmark workload against the regwave sources next to this file.

    python3 perfbench/run.py --workload fleet-day --seed 0 --seconds 35 --trace 0

The run measures set-up (fresh-interpreter imports of ``regwave.cli``),
writes the seeded inputs, makes one untimed verification pass whose outputs
are checked, then repeats the workload for ``--seconds`` seconds.  Every
repetition must reproduce the verification pass's outputs byte for byte.

With ``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1`` it
spends the first half of the time untraced and the second half with the
per-layer tracer installed, and reports the per-layer metrics and the
tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object.  The exit code is 1 when an output check
fails and 2 when the sources are not there.
"""

from __future__ import annotations

import os

# One process and no extra threads: keep numpy's BLAS pool from starting one.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads
from workloads import inside

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

UNITS = {
    "setup_s": "s", "iter_ref": "ref", "samples_per_ref": "1/ref", "ref_s": "s",
    "iter_s": "s", "iter_s_tail": "s", "simulate_s": "s",
    "reduce_s": "s", "synthesize_s": "s", "detect_s": "s", "compare_s": "s",
    "case_s": "s", "samples_per_s": "1/s", "peak_rss_mb": "MB",
    "ops_failed_ratio": "ratio", "jaccard_mean": "ratio", "prd_mean": "%",
}
VERBS = ("simulate", "reduce", "synthesize", "detect", "compare", "case")
# The metrics BENCHMARK.json gates: each is defined, never 0, and steady across
# seeds on every workload.  The rest are printed only; perfbench/README.md
# says why for each.
GATED = ("setup_s", "iter_ref", "samples_per_ref", "peak_rss_mb", "prd_mean")


def measure_setup(repeats: int) -> list[float]:
    """Seconds to import regwave.cli in fresh interpreters, after one warm-up."""
    code = (
        "import time; t = time.perf_counter(); import regwave.cli; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p))
    times = []
    for _ in range(repeats + 1):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout))
    return times[1:]


def reference_s() -> float:
    """Seconds for a fixed mix of interpreter and numpy work.

    On a shared machine the CPU speed drifts with other tenants' load, by up
    to 2x over minutes.  The workload slows by nearly the same factor as this
    loop, so a time divided by the loop's time measured next to it is steady
    where the raw time is not.
    """
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(30_000):
        key = i % 97
        table[key] = table.get(key, 0) + len(str(key))
    a = np.arange(4096.0)
    for _ in range(300):
        a = np.sqrt(a * a + 1.0)
    return time.perf_counter() - t0


@dataclass(frozen=True)
class Rep:
    """One timed repetition: its calls, its per-layer trace deltas, and the
    mean reference-loop time measured just before and just after it."""

    calls: list
    layers: dict
    ref_s: float

    @property
    def iter_s(self) -> float:
        return sum(c.seconds for c in self.calls if c.in_iter)

    @property
    def samples_per_s(self) -> float:
        ok = [c for c in self.calls if c.ok]
        return sum(c.samples for c in ok) / sum(c.seconds for c in ok)


def tail(values: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it.

    Below 20 samples that percentile would sit under the median, so the
    tail is the maximum instead.
    """
    s = sorted(values)
    if len(s) < 20:
        return s[-1], f"max of {len(s)}"
    k = len(s) - 11
    return s[k], f"p{100 * (k + 1) // len(s)} of {len(s)}"


def repeat(wl, seconds: float, work: Path, reference: str, sink, tracer=None):
    """Repeat the workload for ``seconds``; returns one Rep per iteration.
    Raises CheckFailed when an iteration's outputs differ from the
    verification pass's."""
    runs, took = [], 0.0
    start = time.perf_counter()
    ref_before = reference_s()
    # Start an iteration only while one as long as the last still fits.
    while not runs or time.perf_counter() - start + took <= seconds:
        t0 = time.perf_counter()
        out = fresh_dir(work / "iter")
        before = tracer.snapshot() if tracer else {}
        with inside(out):
            calls, outputs = wl.iterate(sink)
        after = tracer.snapshot() if tracer else {}
        digest = wl.digest(outputs)
        if digest != reference:
            raise checks.CheckFailed(
                f"iteration {len(runs) + 1} outputs differ from the verification pass "
                f"(sha256 {digest} vs {reference})")
        ref_after = reference_s()
        runs.append(Rep(calls, {k: v - before.get(k, 0.0) for k, v in after.items()},
                        (ref_before + ref_after) / 2))
        ref_before = ref_after
        took = time.perf_counter() - t0
    return runs


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def end_to_end(runs, setup: list[float], quality) -> tuple[dict, dict]:
    """(values, notes) of every end-to-end metric the workload defines."""
    calls = [c for r in runs for c in r.calls]
    ok = [c for c in calls if c.ok]
    iters = [r.iter_s for r in runs]
    values = {
        "setup_s": statistics.median(setup),
        "iter_ref": statistics.median(r.iter_s / r.ref_s for r in runs),
        "samples_per_ref": statistics.median(r.samples_per_s * r.ref_s for r in runs),
        "ref_s": statistics.median(r.ref_s for r in runs),
        "iter_s": statistics.median(iters),
        "samples_per_s": statistics.median(r.samples_per_s for r in runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_failed_ratio": (len(calls) - len(ok)) / len(calls),
        "jaccard_mean": statistics.fmean(j for j, _ in quality),
        "prd_mean": statistics.fmean(p for _, p in quality),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh imports",
        "iter_ref": f"median of {len(iters)} iter_s / ref_s",
        "samples_per_ref": f"median of {len(iters)} samples_per_s x ref_s",
        "ref_s": f"median of {len(iters)} reference loops",
        "iter_s": f"median of {len(iters)}",
        "samples_per_s": f"median of {len(iters)}",
        "ops_failed_ratio": f"{len(calls) - len(ok)} of {len(calls)} calls",
        "jaccard_mean": f"mean of {len(quality)}",
        "prd_mean": f"mean of {len(quality)}",
    }
    values["iter_s_tail"], notes["iter_s_tail"] = tail(iters)
    for verb in VERBS:
        times = [c.seconds for c in ok if c.verb == verb]
        if times:
            values[f"{verb}_s"] = statistics.median(times)
            notes[f"{verb}_s"] = f"median of {len(times)}"
    return values, notes


def report_failures(runs) -> None:
    failures = Counter((c.verb, c.error) for r in runs for c in r.calls if not c.ok)
    for (verb, error), n in sorted(failures.items()):
        print(f"  failed call: {verb} x{n}: {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs for the smoke test")
    args = parser.parse_args(argv)

    setup = measure_setup(SETUP_REPEATS)
    wl = workloads.WORKLOADS[args.workload](args.seed, tiny=args.size == "tiny")
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    runs, traced, missing = [], [], []
    try:
        with open(os.devnull, "w") as sink:
            wl.prepare(fresh_dir(work / "inputs"))
            verify = fresh_dir(work / "verify")
            with inside(verify):
                calls, outputs = wl.iterate(sink)
            quality = wl.check(calls, outputs)
            reference = wl.digest(outputs)
            print(f"{args.workload} seed {args.seed}: outputs sha256 {reference}")
            if not args.trace:
                runs = repeat(wl, args.seconds, work, reference, sink)
            else:
                runs = repeat(wl, args.seconds / 2, work, reference, sink)
                with tracing.Tracer() as tracer:
                    traced = repeat(wl, args.seconds / 2, work, reference, sink, tracer)
                missing = tracer.missing
    except checks.CheckFailed as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        print(result_line(False, [], {}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    values, notes = end_to_end(runs, setup, quality)
    print(f"  {len(runs)} iterations, digests identical to the verification pass")
    if not args.trace:
        for name, unit in UNITS.items():
            shown = f"{values[name]:.6g} {unit}" if name in values else "n/a"
            print(f"  {name:<17} {shown:<18} {notes.get(name, '')}")
        metrics = {name: {"value": values[name], "unit": UNITS[name]} for name in GATED}
    else:
        layers = tracing.layer_metrics([r.layers for r in traced])
        traced_ref = statistics.median(r.iter_s / r.ref_s for r in traced)
        # The difference of the normalised medians, in seconds at the run's
        # median reference speed: raw medians of the two halves differ by
        # more than the overhead whenever the machine's speed drifts.
        ref_s = statistics.median(r.ref_s for r in runs + traced)
        layers["trace.overhead_s"] = (traced_ref - values["iter_ref"]) * ref_s
        layers["trace.missing"] = len(missing)
        print(f"  iter_ref traced {traced_ref:.6g} over {len(traced)} iterations, "
              f"untraced {values['iter_ref']:.6g} over {len(runs)}; ref_s {ref_s:.6g} s")
        for name in missing:
            print(f"  missing from the program: {name}")
        for name, value in layers.items():
            print(f"  {name:<27} {value:.6g} {tracing.unit(name)}")
        metrics = {name: {"value": v, "unit": tracing.unit(name)} for name, v in layers.items()}
    report_failures(runs + traced)
    print(result_line(True, runs + traced, metrics))
    return 0


def result_line(correct: bool, runs, metrics: dict) -> str:
    calls = [c for r in runs for c in r.calls]
    return json.dumps({
        "correct": correct,
        "attempted": max(len(calls), 1),
        "failed": sum(not c.ok for c in calls),
        "metrics": metrics,
    })


def load_program() -> bool:
    """Put the sources next to this directory first on the import path."""
    if not (SRC / "regwave" / "cli.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import regwave

    return Path(regwave.__file__).resolve().is_relative_to(SRC)


if __name__ == "__main__":
    if not load_program():
        print(f"error: no regwave sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
