import math

import numpy as np
import pytest

from regwave.errors import DataError, InsufficientDataError, LengthError
from regwave.gaussian import (
    calibrate,
    detect,
    fit,
    log_probability_rows,
    select_threshold,
)


def two_pass_oracle(x):
    # Deliberately naive: explicit loops, population denominator.
    m = len(x)
    mean = sum(x) / m
    var = sum((v - mean) ** 2 for v in x) / m
    return mean, var


def sort_index_oracle(probs, q):
    ordered = sorted(probs)
    return ordered[int(math.floor(q * (len(ordered) - 1)))]


def test_fit_hand_values():
    model = fit(np.array([2.0, 4.0, 6.0]))
    assert model.mu == pytest.approx(4.0, abs=1e-15)
    assert model.sigma2 == pytest.approx(8.0 / 3.0, abs=1e-15)


def test_constant_feature_gets_the_variance_floor():
    model = fit(np.array([7.0, 7.0, 7.0, 7.0]))
    assert model.mu == 7.0
    assert model.sigma2 == pytest.approx(1e-12 * (1 + 49.0), rel=1e-12)


def test_fit_matches_two_pass_oracle_on_large_sample():
    rng = np.random.default_rng(42)
    x = rng.normal(loc=100.0, scale=5.0, size=10_000)
    model = fit(x)
    mean, var = two_pass_oracle(list(x))
    assert abs(model.mu - mean) <= 1e-12 * max(1.0, abs(mean))
    assert abs(model.sigma2 - var) <= 1e-12 * max(1.0, abs(var))
    # Statistical sanity: within 3 standard errors of the true parameters.
    assert abs(model.mu - 100.0) < 3 * 5.0 / math.sqrt(10_000)
    assert abs(model.sigma2 - 25.0) < 3 * 25.0 * math.sqrt(2.0 / 10_000)


def test_fit_rejects_small_or_bad_input():
    with pytest.raises(InsufficientDataError):
        fit(np.array([1.0]))
    with pytest.raises(DataError):
        fit(np.array([1.0, float("nan"), 2.0]))


def density(mu, sigma2, samples):
    """Densities of one row of samples, shape (m,), under one model."""
    log_p = log_probability_rows(np.array([mu]), np.array([sigma2]), np.array([samples]))
    return np.exp(log_p[0])


def test_density_at_the_mean():
    assert density(0.0, 1.0, [0.0])[0] == pytest.approx(
        1.0 / math.sqrt(2 * math.pi), rel=1e-12
    )


def test_three_sigma_density():
    assert density(0.0, 1.0, [3.0])[0] == pytest.approx(
        math.exp(-4.5) / math.sqrt(2 * math.pi), rel=1e-12
    )


def test_probability_shrinks_away_from_the_mean():
    values = density(0.0, 2.0, [0.0, 0.5, 1.0, 2.0, 4.0])
    assert all(a > b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("shape", [(), (4, 1), (1, 4)])
def test_fit_calibrate_and_detect_take_a_series(shape):
    train = np.array([1.0, 2.0, 3.0, 4.0])
    model = calibrate(fit(train), train)
    for call in (fit, lambda x: calibrate(model, x), lambda x: detect(model, x)):
        with pytest.raises(LengthError, match="expected a 1-D series"):
            call(np.ones(shape))


def test_threshold_of_a_small_set_is_its_minimum():
    probs = [x / 10 for x in range(1, 11)]
    assert select_threshold(probs, 0.01) == pytest.approx(0.1)


def test_threshold_of_a_degenerate_set():
    assert select_threshold([0.5] * 100, 0.37) == 0.5


def test_threshold_matches_sort_index_oracle_exactly():
    rng = np.random.default_rng(8)
    probs = rng.uniform(1e-9, 1.0, size=1000)
    for q in (0.001, 0.01, 0.05, 0.25, 0.5):
        assert select_threshold(probs, q) == sort_index_oracle(list(probs), q)


def test_threshold_needs_data():
    with pytest.raises(InsufficientDataError):
        select_threshold([], 0.01)


def test_no_flags_at_the_mean():
    x = np.full(50, 10.0)
    x[0] = 10.5
    x[1] = 9.5
    model = calibrate(fit(x), x, quantile=0.01)
    report = detect(model, np.full(20, 10.0))
    assert not report.flags.any()


def test_single_outlier_is_the_only_flag():
    # Train on values within one sigma of the mean; evaluate on values that
    # stay inside that envelope except for one far outlier.
    rng = np.random.default_rng(77)
    train = rng.uniform(-1.0, 1.0, size=255)
    model = calibrate(fit(train), train, quantile=0.01)
    samples = np.concatenate([rng.uniform(-0.5, 0.5, size=100), [10.0],
                              rng.uniform(-0.5, 0.5, size=55)])
    report = detect(model, samples)
    assert list(report.flagged_indices()) == [100]
    brute = [density(model.mu, model.sigma2, [v])[0] < model.epsilon for v in samples]
    assert list(np.flatnonzero(brute)) == [100]


def test_flags_recompute_from_stored_probabilities():
    rng = np.random.default_rng(12)
    train = rng.normal(size=500)
    model = calibrate(fit(train), train, quantile=0.05)
    report = detect(model, rng.normal(size=300))
    assert np.array_equal(report.flags, report.probabilities < report.epsilon)


def test_fit_is_translation_equivariant():
    rng = np.random.default_rng(19)
    x = rng.normal(size=400)
    base = fit(x)
    shifted = fit(x + 1000.0)
    assert abs(shifted.mu - base.mu - 1000.0) <= 1e-9
    assert abs(shifted.sigma2 - base.sigma2) <= 1e-9


def test_flags_survive_consistent_rescaling():
    rng = np.random.default_rng(21)
    train = rng.normal(50.0, 4.0, size=600)
    eval_samples = rng.normal(50.0, 4.0, size=200)
    eval_samples[17] = 90.0
    flags = []
    for scale in (1.0, 250.0):
        model = calibrate(fit(train * scale), train * scale, quantile=0.02)
        flags.append(tuple(detect(model, eval_samples * scale).flagged_indices()))
    assert flags[0] == flags[1]


def test_underflowed_probabilities_still_flag():
    rng = np.random.default_rng(30)
    train = rng.normal(0.0, 1.0, size=500)
    model = calibrate(fit(train), train, quantile=0.01)
    report = detect(model, np.array([1e6]))
    assert report.probabilities[0] == 0.0
    assert bool(report.flags[0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_detect_refuses_non_finite_samples(bad):
    # A NaN scores NaN, and NaN < epsilon is False: it would never be flagged.
    train = np.array([1.0, 2.0, 3.0, 4.0])
    model = calibrate(fit(train), train, quantile=0.01)
    with pytest.raises(DataError, match="non-finite"):
        detect(model, np.array([1.0, bad, 1e9]))


def test_detect_requires_a_threshold():
    model = fit(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        detect(model, np.array([1.0]))
