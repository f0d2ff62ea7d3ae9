"""Smoke tests of the benchmark at a tiny size.

    python3 -m pytest perfbench

They check that the runner prints exactly the metrics BENCHMARK.json names,
that the output checks catch corrupted outputs, and that the runner refuses
to run without the program's sources.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracing
import workloads

assert run.load_program()

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_runner_prints_every_declared_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        for name, unit in run.UNITS.items():  # printed by name, with the unit
            assert name in proc.stdout
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_runner_refuses_without_sources(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "fleet-day", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _verified(workload, tmp_path):
    wl = workloads.WORKLOADS[workload](0, tiny=True)
    wl.prepare(run.fresh_dir(tmp_path / "inputs"))
    out = run.fresh_dir(tmp_path / "out")
    with open(os.devnull, "w") as sink, workloads.inside(out):
        calls, outputs = wl.iterate(sink)
    wl.check(calls, outputs)
    return wl, calls, outputs


def _edit(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def test_checks_catch_corrupted_fleet_day_outputs(tmp_path):
    wl, calls, out = _verified("fleet-day", tmp_path)
    reference = wl.digest(out)
    report = out / "comparison" / "report.json"
    doc = json.loads(report.read_text())
    doc["windows"][1]["prd"] *= 1 + 1e-6
    report.write_text(json.dumps(doc))
    with pytest.raises(checks.CheckFailed, match="ledger"):
        wl.check(calls, out)
    assert wl.digest(out) != reference


@pytest.mark.parametrize("corrupt, match", [
    (lambda out: _edit(out / "sim" / "s1_p1_tx_bytes.csv", "\n3,30.0,", "\n3,30.0,1"),
     "decreases"),
    (lambda out: (out / "rebuilt.csv").write_text(
        "".join((out / "rebuilt.csv").read_text().splitlines(True)[:-1])), "rows"),
    (lambda out: _edit(out / "detection" / "flags.csv", ",0.0\n", ",0.5\n"), "0 or 1"),
    (lambda out: (out / "comparison" / "window001_synthesized.csv").unlink(), "cannot read"),
])
def test_checks_catch_corrupted_files(tmp_path, corrupt, match):
    wl, calls, out = _verified("fleet-day", tmp_path)
    corrupt(out)
    with pytest.raises(checks.CheckFailed, match=match):
        wl.check(calls, out)


def test_checks_catch_failed_calls_and_lost_spikes(tmp_path):
    wl, calls, results = _verified("preservation-suite", tmp_path)
    failed = [dataclasses.replace(calls[0], ok=False, error="boom"), *calls[1:]]
    with pytest.raises(checks.CheckFailed, match="boom"):
        wl.check(failed, results)
    spike = results[0]
    assert spike.case.spike_indices()
    lost = dataclasses.replace(spike, reports={
        field: dataclasses.replace(rep, flags_synthesized=())
        for field, rep in spike.reports.items()
    })
    with pytest.raises(checks.CheckFailed, match="spike"):
        wl.check(calls, [lost, *results[1:]])
    assert wl.digest([lost, *results[1:]]) != wl.digest(results)


def test_register_10day_records_the_zero_register_failure(tmp_path):
    wl, calls, out = _verified("register-10day", tmp_path)
    assert [c.ok for c in calls if c.in_iter] == [True] * 4
    zero = [c for c in calls if not c.in_iter]
    assert [c.verb for c in zero if not c.ok] == ["compare"]
    assert "all-zero reference" in zero[-1].error


def test_inputs_depend_only_on_the_seed():
    a, b = workloads.register_10day(7, 4096), workloads.register_10day(7, 4096)
    assert all(map(lambda x, y: (x == y).all(), a, b))
    assert not (workloads.register_10day(8, 4096)[0] == a[0]).all()
    assert (a[1] == 0).all() and (a[0][1:] >= a[0][:-1]).all()
    assert workloads.fleet_day_scenario(7, 8640) == workloads.fleet_day_scenario(7, 8640)
    assert workloads.fleet_day_scenario(7, 8640) != workloads.fleet_day_scenario(8, 8640)


def test_tracer_reports_missing_functions_and_restores(monkeypatch):
    from regwave import cli, reducer

    original = reducer.synthesize
    monkeypatch.setitem(tracing.TARGETS, "gone", ("regwave.reducer", "no_such_fn", None))
    with tracing.Tracer() as tracer:
        assert cli.synthesize_register is not original
    assert tracer.missing == ["regwave.reducer.no_such_fn"]
    assert cli.synthesize_register is original and reducer.synthesize is original
