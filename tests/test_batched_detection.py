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
from regwave.gaussian import calibrate, fit, fit_rows
from regwave.metrics import ComparisonReport
from regwave.pipeline import compare_windows, reduce_series
from regwave.reducer import ReductionPolicy, compression_ratio, synthesize
from regwave.telemetry import SwitchSim, TrafficProfile, deltas, poll
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
    ref = float(np.add.reduce(original * original))
    if ref == 0.0:
        raise UndefinedMetricError("prd is undefined for an all-zero reference")
    diff = original - synthesized
    return ComparisonReport(
        compression_ratio=compression,
        rmse=math.sqrt(float(np.mean(diff**2))),
        prd=100.0 * math.sqrt(float(np.add.reduce(diff * diff)) / ref),
        flags_original=tuple(sorted(a)),
        flags_synthesized=tuple(sorted(b)),
        jaccard=len(a & b) / len(a | b) if a | b else 1.0,
        preserved_precision=hits / len(b) if b else 1.0,
        preserved_recall=hits / len(a) if a else 1.0,
    )


def ref_compare(values, registers, *, model=None, train=None, quantile=0.01):
    """One window at a time: (epsilon, probs_o, probs_s, report) per window."""
    x = np.asarray(values, dtype=np.float64)
    shared = None
    if model is not None:
        shared = (model.mu, model.sigma2, model.epsilon)
    elif train is not None:
        shared = ref_model(x[:train], quantile)
    out = []
    for r, register in enumerate(registers):
        n = register.original_length
        original = x[r * n : (r + 1) * n]
        synthesized = synthesize(register)
        mu, sigma2, eps = shared or ref_model(original, quantile)
        probs_o = ref_probabilities(mu, sigma2, original)
        probs_s = ref_probabilities(mu, sigma2, synthesized)
        report = ref_report(
            compression_ratio(register), original, synthesized, probs_o, probs_s, eps
        )
        out.append((eps, probs_o, probs_s, report))
    return out


def assert_same(comp, reference):
    assert len(comp.reports) == len(reference)
    assert comp.epsilon.tolist() == [eps for eps, _, _, _ in reference]
    for r, (_, probs_o, probs_s, report) in enumerate(reference):
        assert np.array_equal(comp.prob_original[r], probs_o)
        assert np.array_equal(comp.prob_synthesized[r], probs_s)
        assert comp.reports[r] == report
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


def prefix_model(train, quantile):
    return calibrate(fit(train), train, quantile)


def _compare_both(series, registers, source, quantile, rng):
    kwargs = {"quantile": quantile}
    ref_kwargs = dict(kwargs)
    if source == "model":
        kwargs["model"] = ref_kwargs["model"] = prefix_model(bursty(rng, 300), quantile)
    elif source == "train":
        # The reference fits its own model on the prefix.
        ref_kwargs["train"] = train = max(2, series.shape[0] // 2)
        kwargs["model"] = prefix_model(series[:train], quantile)
    return (
        compare_windows(series, registers, **kwargs),
        ref_compare(series, registers, **ref_kwargs),
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
    registers, _ = reduce_series(series, filters, ReductionPolicy(max_depth=depth), n)
    assert len(registers) == rows
    comp, reference = _compare_both(series, registers, source, 0.05, rng)
    assert_same(comp, reference)
    # The originals are the series' windows, copied out of it.
    assert np.array_equal(comp.original, series[: rows * n].reshape(rows, n))
    assert not np.shares_memory(comp.original, series)
    if source == "per-window" and n >= 32:  # the 5% quantile is above the minimum
        assert any(report.flags_original for report in comp.reports)


@pytest.mark.parametrize("source", SOURCES)
def test_all_zero_window_raises_as_before(source):
    rng = np.random.default_rng(9)
    filters = make_filter_pair("haar")
    series = bursty(rng, 3 * 64)
    series[64:128] = 0.0
    registers, _ = reduce_series(series, filters, ReductionPolicy(max_depth=1), 64)
    kwargs = {"model": prefix_model(bursty(rng, 100), 0.05)} if source == "model" else {}
    ref_kwargs = dict(kwargs)
    if source == "train":
        ref_kwargs["train"] = 64
        kwargs["model"] = prefix_model(series[:64], 0.01)
    for compare, args in ((compare_windows, kwargs), (ref_compare, ref_kwargs)):
        with pytest.raises(UndefinedMetricError,
                           match="prd is undefined for an all-zero reference"):
            compare(series, registers, **args)


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
    store = poll([switch], interval=suite.INTERVAL, duration=suite.INTERVAL * n)
    filters = make_filter_pair(suite.FAMILY)
    policy = ReductionPolicy(max_depth=suite.DEPTH)
    reports = {}
    for field in ("rx_bytes", "tx_bytes"):
        series = deltas(store.counter_series("s1", 1, field))
        registers, _ = reduce_series(series, filters, policy, suite.WINDOW)
        reference = ref_compare(
            series, registers, train=suite.TRAIN_SAMPLES, quantile=suite.QUANTILE
        )
        reports[field] = reference[suite.TRAIN_SAMPLES // suite.WINDOW][3]
    return reports


@pytest.mark.parametrize("offset", [0, 3000, 7000])
def test_run_case_equals_the_per_direction_reference(offset):
    for case in suite.preservation_suite():
        case = dataclasses.replace(case, seed=case.seed + offset)
        assert suite.run_case(case).reports == ref_run_case(case), case.name
