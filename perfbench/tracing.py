"""Per-layer tracing from outside the program.

The traced run replaces public functions of ``regwave`` modules with timing
wrappers, in every ``regwave`` namespace that holds them, so that
``from .telemetry import poll`` call sites are traced as well.  Spans nest:
each span's self time is its duration minus its child spans.  Spans are
aggregated in memory as they close; nothing is written while the workload
runs.  A function that no longer exists is reported as missing, not raised.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time
from collections import defaultdict


def _poll_counts(args, kwargs, store, add):
    interval = kwargs.get("interval", args[2] if len(args) > 2 else 10.0)
    duration = kwargs.get("duration", args[3] if len(args) > 3 else 0.0)
    add("telemetry.ticks", round(duration / interval))
    add("telemetry.snapshots", sum(len(store.snapshots(*key)) for key in store.keys()))


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _wrote(args, kwargs, result, add):
    add("formats.files_written", 1)
    add("formats.bytes_written", _size(args[0]))


def _exported(args, kwargs, paths, add):
    add("formats.files_written", len(paths))
    add("formats.bytes_written", sum(_size(p) for p in paths))


def _read(args, kwargs, result, add):
    add("formats.bytes_read", _size(args[0]))


def _decomposed(args, kwargs, reduced, add):
    energies = reduced.sibling_energies
    add("reducer.windows", 1)
    add("reducer.kept_energy", energies[-1][0])
    add("reducer.window_energy", sum(energies[0]))


def _detected(args, kwargs, report, add):
    add("gaussian.samples_scored", report.flags.size)
    add("gaussian.flags", int(report.flags.sum()))


def _case(args, kwargs, result, add):
    add("suite.cases", 1)


# span name -> (module, function, optional count hook run after the span)
TARGETS = {
    "telemetry.poll": ("regwave.telemetry", "poll", _poll_counts),
    "telemetry.deltas": ("regwave.telemetry", "deltas", None),
    "scenario.load": ("regwave.scenario", "load_scenario", None),
    "formats.export": ("regwave.formats", "export_store", _exported),
    "formats.read_register": ("regwave.formats", "read_register_csv", _read),
    "formats.write_series": ("regwave.formats", "write_series_csv", _wrote),
    "formats.write_reduced": ("regwave.formats", "write_reduced_file", _wrote),
    "formats.read_reduced": ("regwave.formats", "read_reduced_file", _read),
    "formats.write_model": ("regwave.formats", "write_model_file", _wrote),
    "formats.read_model": ("regwave.formats", "read_model_file", _read),
    "wavelets.analysis": ("regwave.wavelets", "analysis_step", None),
    "wavelets.synthesis": ("regwave.wavelets", "synthesis_step", None),
    "reducer.decompose": ("regwave.reducer", "decompose", _decomposed),
    "reducer.synthesize": ("regwave.reducer", "synthesize", None),
    "gaussian.fit": ("regwave.gaussian", "fit", None),
    "gaussian.calibrate": ("regwave.gaussian", "calibrate", None),
    "gaussian.detect": ("regwave.gaussian", "detect", _detected),
    "metrics.report": ("regwave.metrics", "build_report", None),
    "pipeline.reduce_series": ("regwave.pipeline", "reduce_series", None),
    "pipeline.compare_windows": ("regwave.pipeline", "compare_windows", None),
    "cli.main": ("regwave.cli", "main", None),
    "suite.run_case": ("regwave.suite", "run_case", _case),
}


class Tracer:
    """Install with ``with Tracer() as t:``; read ``t.total``, ``t.self_time``,
    ``t.calls`` and ``t.counts`` (all keyed by span or counter name)."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[list[float]] = []  # child time of each open span
        self._patched: list[tuple[object, str, object]] = []

    def _add(self, name: str, value) -> None:
        self.counts[name] += value

    def _wrap(self, name: str, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._stack.append([0.0])
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - t0
                children = self._stack.pop()[0]
                self.total[name] += duration
                self.self_time[name] += duration - children
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][0] += duration
            if hook is not None:
                try:
                    hook(args, kwargs, result, self._add)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # The result no longer has the shape the counter reads.
                    if f"{name} counts" not in self.missing:
                        self.missing.append(f"{name} counts")
            return result

        return traced

    def __enter__(self):
        for module_name, _, _ in TARGETS.values():
            try:
                importlib.import_module(module_name)
            except ImportError:
                pass
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "regwave"]
        for name, (module_name, attr, hook) in TARGETS.items():
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            traced = self._wrap(name, original, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, traced)
                        self._patched.append((m, key, original))
        return self

    def __exit__(self, *exc):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()
        return False

    def snapshot(self) -> dict[str, float]:
        """Flat view of every span total, self time, call count and counter."""
        out = {f"{n}_s": v for n, v in self.total.items()}
        out.update({f"{n}.self_s": v for n, v in self.self_time.items()})
        out.update({f"{n}_calls": v for n, v in self.calls.items()})
        out.update(self.counts)
        return out


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.startswith("formats.bytes"):
        return "bytes"
    return "ratio" if metric.endswith("_ratio") else "count"


def layer_metrics(per_iteration: list[dict[str, float]]) -> dict[str, float]:
    """Per-layer metrics: medians over traced iterations of their deltas."""

    def med(*keys: str) -> float:
        return statistics.median(sum(it.get(k, 0.0) for k in keys) for it in per_iteration)

    def ratio(num: str, den: str) -> float:
        d = sum(it.get(den, 0.0) for it in per_iteration)
        return sum(it.get(num, 0.0) for it in per_iteration) / d if d else 0.0

    return {
        "telemetry.poll_s": med("telemetry.poll_s"),
        "telemetry.ticks": med("telemetry.ticks"),
        "telemetry.snapshots": med("telemetry.snapshots"),
        "telemetry.deltas_s": med("telemetry.deltas_s"),
        "scenario.load_s": med("scenario.load_s"),
        "formats.export_s": med("formats.export_s"),
        "formats.files_written": med("formats.files_written"),
        "formats.bytes_written": med("formats.bytes_written"),
        "formats.read_register_s": med("formats.read_register_s"),
        "formats.write_series_s": med("formats.write_series_s"),
        "formats.write_reduced_s": med("formats.write_reduced_s"),
        "formats.read_reduced_s": med("formats.read_reduced_s"),
        "formats.bytes_read": med("formats.bytes_read"),
        "wavelets.analysis_s": med("wavelets.analysis_s"),
        "wavelets.synthesis_s": med("wavelets.synthesis_s"),
        "wavelets.analysis_calls": med("wavelets.analysis_calls"),
        "wavelets.synthesis_calls": med("wavelets.synthesis_calls"),
        "reducer.decompose_s": med("reducer.decompose_s"),
        "reducer.synthesize_s": med("reducer.synthesize_s"),
        "reducer.windows": med("reducer.windows"),
        "reducer.kept_energy_ratio": ratio("reducer.kept_energy", "reducer.window_energy"),
        "gaussian.fit_s": med("gaussian.fit_s", "gaussian.calibrate_s"),
        "gaussian.detect_s": med("gaussian.detect_s"),
        "gaussian.samples_scored": med("gaussian.samples_scored"),
        "gaussian.flag_ratio": ratio("gaussian.flags", "gaussian.samples_scored"),
        "metrics.report_s": med("metrics.report_s"),
        "pipeline.reduce_series_s": med("pipeline.reduce_series_s"),
        "pipeline.compare_windows_s": med("pipeline.compare_windows_s"),
        "cli.self_s": med("cli.main.self_s"),
        "suite.run_case_s": med("suite.run_case_s"),
        "suite.cases": med("suite.cases"),
    }
