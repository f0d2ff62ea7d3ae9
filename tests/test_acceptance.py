"""Acceptance gate: one test per shipped guarantee, one printed line each.

Every test prints `criterion N: PASS ...` (or FAIL) with the measured
numbers before asserting, so a plain pytest run doubles as the release
checklist.
"""

import importlib.resources
import math
import time

import numpy as np

from regwave.cli import main
from regwave.formats import export_store
from regwave.gaussian import fit, select_threshold
from regwave.reducer import ReductionPolicy, compression_ratio, decompose, synthesize
from regwave.scenario import load_scenario
from regwave.suite import run_suite
from regwave.telemetry import COUNTER_FIELDS, poll
from regwave.wavelets import (
    analysis_step,
    energy,
    make_filter_pair,
    synthesis_step,
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


def _pr_corpus():
    rng = np.random.default_rng(4242)
    for family in ("haar", "db2"):
        filters = make_filter_pair(family)
        for n in (8, 64, 256, 1024):
            for _ in range(100):
                yield filters, rng.normal(size=n) * 10.0


def test_criterion_1_depth_one_halves_the_window():
    rng = np.random.default_rng(11)
    policy = ReductionPolicy(max_depth=1)
    ok = True
    for family in ("haar", "db2", "db3", "db4"):
        filters = make_filter_pair(family)
        window = rng.normal(size=256)
        first = decompose(window, filters, policy)
        second = decompose(window, filters, policy)
        ok &= first.coeffs.shape == (128,)
        ok &= compression_ratio(first) == 0.5
        ok &= first.path == second.path
        ok &= np.array_equal(first.coeffs, second.coeffs)

    filters = make_filter_pair("db2")
    windows = [rng.normal(size=256) for _ in range(200)]
    best = np.inf
    for _ in range(3):
        t0 = time.perf_counter()
        for window in windows:
            decompose(window, filters, policy)
        best = min(best, (time.perf_counter() - t0) / len(windows))
    ok &= best < 1e-3
    _report(
        1,
        ok,
        f"256-sample windows reduce to 128 coefficients, ratio 0.5, "
        f"{best * 1e6:.0f} us per window",
    )


def test_criterion_2_two_stage_reduction_of_1024_samples():
    rng = np.random.default_rng(12)
    signal = rng.normal(size=1024)
    filters = make_filter_pair("db2")
    reduced = decompose(signal, filters, ReductionPolicy(max_depth=2))
    again = decompose(signal, filters, ReductionPolicy(max_depth=2))
    ok = (
        reduced.coeffs.shape == (256,)
        and compression_ratio(reduced) == 0.75
        and reduced.path == again.path
        and np.array_equal(reduced.coeffs, again.coeffs)
    )
    _report(
        2,
        ok,
        f"1024 samples survive as {reduced.coeffs.shape[0]} coefficients, "
        f"ratio {compression_ratio(reduced)}",
    )


def test_criterion_3_perfect_reconstruction_property():
    t0 = time.perf_counter()
    worst = 0.0
    for filters, signal in _pr_corpus():
        approx, detail = analysis_step(signal, filters)
        rebuilt = synthesis_step(approx, detail, filters)
        worst = max(worst, float(np.max(np.abs(rebuilt - signal))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    _report(
        3,
        ok,
        f"800 round trips, max |rebuilt - original| = {worst:.2e}, "
        f"{elapsed:.2f} s",
    )


def test_criterion_4_energy_ledger_property():
    worst_split = 0.0
    worst_ledger = 0.0
    for filters, signal in _pr_corpus():
        approx, detail = analysis_step(signal, filters)
        worst_split = max(
            worst_split,
            abs(energy(approx) + energy(detail) - energy(signal)),
        )
        # Deepest level still needs a block at least one filter long.
        fits = int(np.log2(signal.shape[0] // len(filters))) + 1
        depth = min(3, fits)
        reduced = decompose(signal, filters, ReductionPolicy(max_depth=depth))
        residual = signal - synthesize(reduced)
        worst_ledger = max(
            worst_ledger, abs(energy(residual) - reduced.discarded_energy())
        )
    ok = worst_split <= 1e-9 and worst_ledger <= 1e-9
    _report(
        4,
        ok,
        f"split imbalance <= {worst_split:.2e}, reconstruction error vs "
        f"discarded energy <= {worst_ledger:.2e}",
    )


def test_criterion_5_gaussian_matches_brute_force():
    rng = np.random.default_rng(15)
    samples = rng.normal(loc=3.0, scale=2.0, size=(10_000, 2))
    samples[:, 1] = rng.gamma(shape=2.0, scale=5.0, size=10_000)
    model = fit(samples)

    mu = np.array([math.fsum(samples[:, j]) / 10_000 for j in range(2)])
    var = np.array(
        [math.fsum((samples[:, j] - mu[j]) ** 2) / 10_000 for j in range(2)]
    )
    rel_mu = float(np.max(np.abs(model.mu - mu) / np.abs(mu)))
    rel_var = float(np.max(np.abs(model.sigma2 - var) / var))

    probs = rng.uniform(size=997)
    exact = True
    for quantile in (0.0, 0.01, 0.05, 0.5, 1.0):
        ordered = sorted(probs)
        idx = int(np.floor(quantile * (len(probs) - 1)))
        exact &= select_threshold(probs, quantile) == ordered[idx]

    ok = rel_mu <= 1e-12 and rel_var <= 1e-12 and exact
    _report(
        5,
        ok,
        f"fit vs two-pass oracle: mu {rel_mu:.1e}, sigma2 {rel_var:.1e} "
        f"relative; threshold matches sort oracle exactly: {exact}",
    )


def test_criterion_6_anomalies_survive_reduction():
    t0 = time.perf_counter()
    results = run_suite()
    elapsed = time.perf_counter() - t0
    worst = min(r.worst_jaccard for r in results)
    spikes_ok = all(r.spikes_preserved() for r in results)
    ok = len(results) >= 20 and worst >= 0.9 and spikes_ok and elapsed < 5.0
    _report(
        6,
        ok,
        f"{len(results)} scenarios, min flag-set Jaccard {worst:.4f}, "
        f"all spike samples flagged in both series: {spikes_ok}, "
        f"{elapsed:.2f} s",
    )


def test_criterion_7_polling_cadence_and_determinism(tmp_path):
    with importlib.resources.as_file(
        importlib.resources.files("regwave") / "scenarios" / "video-42min.scn"
    ) as path:
        config = load_scenario(path)

    dumps = []
    counts = set()
    monotone = True
    for run in range(2):
        store = poll(
            config.build_switches(seed=7),
            interval=config.interval,
            duration=config.duration,
        )
        for switch_id, port in store.keys():
            counts.add(len(store.snapshots(switch_id, port)))
            for field in COUNTER_FIELDS:
                series = store.counter_series(switch_id, port, field)
                monotone &= bool(np.all(np.diff(series) >= 0))
        out = tmp_path / f"run{run}"
        out.mkdir()
        export_store(store, out)
        dumps.append(
            {p.name: p.read_bytes() for p in out.iterdir()}
        )

    identical = dumps[0] == dumps[1]
    ok = counts == {252} and monotone and identical
    _report(
        7,
        ok,
        f"snapshot counts {sorted(counts)}, counters monotone: {monotone}, "
        f"same-seed exports byte-identical: {identical}",
    )


def test_criterion_8_pipeline_runtime(tmp_path):
    sim = tmp_path / "sim"
    red = tmp_path / "red.json"
    cmp_dir = tmp_path / "cmp"
    with importlib.resources.as_file(
        importlib.resources.files("regwave") / "scenarios" / "video-42min.scn"
    ) as scn:
        t0 = time.perf_counter()
        rc_sim = main(["simulate", str(scn), "--seed", "0", "--out", str(sim)])
        rc_red = main(
            ["reduce", str(sim / "s1_p1_tx_bytes.csv"), "--window", "128",
             "--out", str(red)]
        )
        rc_cmp = main(
            ["compare", str(sim / "s1_p1_tx_bytes.csv"), str(red),
             "--out", str(cmp_dir)]
        )
        elapsed = time.perf_counter() - t0
    ok = rc_sim == rc_red == rc_cmp == 0 and elapsed < 1.0
    _report(
        8,
        ok,
        f"simulate + reduce + compare on the 42-minute scenario in "
        f"{elapsed:.2f} s",
    )
