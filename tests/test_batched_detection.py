"""The batched detection stage against a per-window reference, bit for bit.

The reference below fits, thresholds, scores and reports one window at a
time, the way compare and the preservation suite did before detection was
batched: a single-feature model fitted on a 1-D slice, a threshold from
``np.quantile`` of that window's scores, and a report built from sets of
flagged indices.  Every float must come out identical, not merely close.
"""

import dataclasses
import math

import numpy as np
import pytest

from regwave import suite
from regwave.errors import UndefinedMetricError
from regwave.formats import ReducedWindow
from regwave.gaussian import fit, fit_rows
from regwave.metrics import ComparisonReport
from regwave.pipeline import compare_windows, fit_series_model, reduce_series
from regwave.reducer import ReductionPolicy, compression_ratio, synthesize
from regwave.telemetry import Collector, SwitchSim, TrafficProfile, deltas, poll
from regwave.wavelets import make_filter_pair


def ref_model(train, quantile):
    x = np.asarray(train, dtype=np.float64)[:, None]
    mu = x.mean(axis=0)
    sigma2 = np.maximum(np.mean((x - mu) ** 2, axis=0), 1e-12 * (1.0 + mu**2))
    eps = float(np.quantile(ref_probabilities(mu, sigma2, train), quantile, method="lower"))
    return mu, sigma2, eps


def ref_probabilities(mu, sigma2, values):
    x = np.asarray(values, dtype=np.float64)[:, None]
    z2 = (x - mu) ** 2 / sigma2
    return np.exp(-0.5 * np.sum(z2 + np.log(2.0 * math.pi * sigma2), axis=1))


def ref_report(compression, original, synthesized, probs_o, probs_s, eps):
    a = set(int(i) for i in np.flatnonzero(probs_o < eps))
    b = set(int(i) for i in np.flatnonzero(probs_s < eps))
    hits = len(a & b)
    ref = float(original @ original)
    if ref == 0.0:
        raise UndefinedMetricError("prd is undefined for an all-zero reference")
    diff = original - synthesized
    return ComparisonReport(
        compression_ratio=compression,
        rmse=math.sqrt(float(np.mean(diff**2))),
        prd=100.0 * math.sqrt(float(diff @ diff) / ref),
        flags_original=tuple(sorted(a)),
        flags_synthesized=tuple(sorted(b)),
        jaccard=len(a & b) / len(a | b) if a | b else 1.0,
        preserved_precision=hits / len(b) if b else 1.0,
        preserved_recall=hits / len(a) if a else 1.0,
    )


def ref_compare(values, windows, filters, *, model=None, train=0, quantile=0.01):
    """One window at a time: (epsilon, probs_o, probs_s, report) per window."""
    x = np.asarray(values, dtype=np.float64)
    shared = None
    if model is not None:
        shared = (model.mu, model.sigma2, model.epsilon)
    elif train:
        shared = ref_model(x[:train], quantile)
    out = []
    for w in windows:
        original = x[w.start : w.start + w.register.original_length]
        synthesized = synthesize(w.register, filters)
        mu, sigma2, eps = shared or ref_model(original, quantile)
        probs_o = ref_probabilities(mu, sigma2, original)
        probs_s = ref_probabilities(mu, sigma2, synthesized)
        report = ref_report(
            compression_ratio(w.register), original, synthesized, probs_o, probs_s, eps
        )
        out.append((eps, probs_o, probs_s, report))
    return out


def assert_same(comparisons, reference):
    assert len(comparisons) == len(reference)
    for comp, (eps, probs_o, probs_s, report) in zip(comparisons, reference):
        assert comp.epsilon == eps
        assert np.array_equal(comp.prob_original, probs_o)
        assert np.array_equal(comp.prob_synthesized, probs_s)
        assert comp.report == report
        for array in (comp.original, comp.synthesized, comp.prob_original,
                      comp.prob_synthesized):
            assert not array.flags.writeable


def bursty(rng, n):
    # Volumes with a few bursts, so windows carry flags.  They are not
    # integral: sums of integers below 2**53 are exact in any order, and
    # would hide a kernel that sums in another order.
    x = rng.normal(5_000.0, 150.0, size=n)
    for start in rng.integers(0, n, size=max(1, n // 64)):
        x[start : start + rng.integers(1, 9)] += rng.choice([-3_000.0, 4_000.0, 20_000.0])
    return x


SOURCES = ("model", "train", "per-window")


def _compare_both(series, windows, filters, source, quantile, rng):
    kwargs = {"quantile": quantile}
    if source == "model":
        kwargs["model"] = fit_series_model(bursty(rng, 300), quantile)
    elif source == "train":
        kwargs["train"] = max(2, series.shape[0] // 2)
    return (
        compare_windows(series, windows, filters, **kwargs),
        ref_compare(series, windows, filters, **kwargs),
    )


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128, 256])
@pytest.mark.parametrize("rows", [1, 3, 37])
def test_batched_compare_equals_the_per_window_reference(rows, n, source):
    rng = np.random.default_rng(rows * 1000 + n)
    filters = make_filter_pair("haar" if n < 4 else "db2")
    series = bursty(rng, rows * n + n // 2)
    if rows > 1:
        series[n : 2 * n] = 7_000.0  # a constant window takes the variance floor
    depth = 1 if n < 8 else 2
    windows, _ = reduce_series(series, filters, ReductionPolicy(max_depth=depth), n)
    assert len(windows) == rows
    comps, reference = _compare_both(series, windows, filters, source, 0.05, rng)
    assert_same(comps, reference)
    if source == "per-window" and n >= 32:  # the 5% quantile is above the minimum
        assert any(comp.report.flags_original for comp in comps)


@pytest.mark.parametrize("source", SOURCES)
def test_mixed_length_windows_equal_the_reference(source):
    rng = np.random.default_rng(5)
    filters = make_filter_pair("db2")
    series = bursty(rng, 512)
    policy = ReductionPolicy(max_depth=1)
    long_windows, _ = reduce_series(series, filters, policy, 64)
    short_windows, _ = reduce_series(series, filters, policy, 32)
    # Alternate lengths as a hand-edited reduced file may: 64, 32, 64, ...
    windows = []
    for k in range(4):
        windows.append(long_windows[2 * k])
        short = short_windows[4 * k + 2]
        windows.append(ReducedWindow(index=2 * k + 1, start=short.start,
                                     register=short.register))
    comps, reference = _compare_both(series, windows, filters, source, 0.05, rng)
    assert [c.index for c in comps] == [w.index for w in windows]
    assert [c.original.shape[0] for c in comps] == [64, 32] * 4
    assert_same(comps, reference)


@pytest.mark.parametrize("source", SOURCES)
def test_all_zero_window_raises_as_before(source):
    rng = np.random.default_rng(9)
    filters = make_filter_pair("haar")
    series = bursty(rng, 3 * 64)
    series[64:128] = 0.0
    windows, _ = reduce_series(series, filters, ReductionPolicy(max_depth=1), 64)
    kwargs = {"model": fit_series_model(bursty(rng, 100), 0.05)} if source == "model" else {}
    if source == "train":
        kwargs["train"] = 64
    for compare in (compare_windows, ref_compare):
        with pytest.raises(UndefinedMetricError,
                           match="prd is undefined for an all-zero reference"):
            compare(series, windows, filters, **kwargs)


@pytest.mark.parametrize("rows", [1, 3, 37])
def test_fit_rows_equals_fit_of_each_row(rows):
    rng = np.random.default_rng(rows)
    stack = rng.normal(size=(rows, 200, 2)) * [1.0, 1e6]
    mu, sigma2 = fit_rows(stack)
    for r in range(rows):
        model = fit(stack[r])
        assert np.array_equal(mu[r], model.mu)
        assert np.array_equal(sigma2[r], model.sigma2)


def ref_run_case(case):
    """Both directions one after the other, all five windows reduced."""
    switch = SwitchSim(
        "s1",
        {1: TrafficProfile(base_rate=case.base_rate, jitter=case.jitter)},
        scenarios=[case.anomaly()],
        seed=case.seed,
    )
    n = suite.TRAIN_SAMPLES + suite.WINDOW + 1
    store = poll(Collector(), [switch], interval=suite.INTERVAL, duration=suite.INTERVAL * n)
    filters = make_filter_pair(suite.FAMILY)
    policy = ReductionPolicy(max_depth=suite.DEPTH)
    reports = {}
    for field in ("rx_bytes", "tx_bytes"):
        series = deltas(store.counter_series("s1", 1, field))
        windows, _ = reduce_series(series, filters, policy, suite.WINDOW)
        target = [w for w in windows if w.index == suite.TRAIN_SAMPLES // suite.WINDOW]
        [(_, _, _, report)] = ref_compare(
            series, target, filters, train=suite.TRAIN_SAMPLES, quantile=suite.QUANTILE
        )
        reports[field] = report
    return reports


@pytest.mark.parametrize("offset", [0, 3000, 7000])
def test_run_case_equals_the_per_direction_reference(offset):
    for case in suite.preservation_suite():
        case = dataclasses.replace(case, seed=case.seed + offset)
        assert suite.run_case(case).reports == ref_run_case(case), case.name
