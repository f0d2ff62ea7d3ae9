import numpy as np
import pytest

from regwave.errors import AlignmentError, InsufficientDataError
from regwave.pipeline import (
    compare_windows,
    fit_series_model,
    reduce_series,
)
from regwave.reducer import ReductionPolicy
from regwave.wavelets import energy, make_filter_pair


def test_reduce_series_window_arithmetic():
    fp = make_filter_pair("haar")
    policy = ReductionPolicy(max_depth=1)
    windows, dropped = reduce_series(np.ones(300), fp, policy, 256)
    assert [w.start for w in windows] == [0]
    assert dropped == 44
    windows, dropped = reduce_series(np.ones(512), fp, policy, 256)
    assert [w.start for w in windows] == [0, 256]
    assert dropped == 0
    with pytest.raises(InsufficientDataError, match="window must be at least 2"):
        reduce_series(np.ones(100), fp, policy, 1)


def test_reduce_series_drops_the_partial_tail():
    fp = make_filter_pair("haar")
    rng = np.random.default_rng(0)
    windows, dropped = reduce_series(
        rng.normal(size=300), fp, ReductionPolicy(max_depth=1), 256
    )
    assert len(windows) == 1
    assert dropped == 44
    assert windows[0].register.coeffs.shape[0] == 128


def test_reduce_series_needs_one_full_window():
    fp = make_filter_pair("haar")
    with pytest.raises(InsufficientDataError):
        reduce_series(np.ones(100), fp, ReductionPolicy(max_depth=1), 256)


def test_lossless_window_compares_clean():
    fp = make_filter_pair("haar")
    series = np.full(64, 100.0)
    windows, _ = reduce_series(series, fp, ReductionPolicy(max_depth=1), 64)
    [comp] = compare_windows(series, windows, fp, quantile=0.01)
    # A constant register is pure approximation; only rounding survives.
    assert comp.report.rmse <= 1e-9
    assert comp.report.prd <= 1e-9
    assert comp.report.jaccard == 1.0
    assert comp.report.flags_original == comp.report.flags_synthesized == ()


def test_white_noise_error_energy_matches_discarded():
    fp = make_filter_pair("db2")
    rng = np.random.default_rng(44)
    series = rng.normal(size=256)
    windows, _ = reduce_series(series, fp, ReductionPolicy(max_depth=1), 256)
    [comp] = compare_windows(series, windows, fp)
    residual = comp.report.rmse**2 * 256
    assert abs(residual - windows[0].register.discarded_energy()) <= 1e-9
    assert abs(residual - energy(series - comp.synthesized)) <= 1e-9


def test_shared_model_scores_both_series():
    rng = np.random.default_rng(15)
    train = rng.normal(1000.0, 30.0, size=512)
    window = rng.normal(1000.0, 30.0, size=256)
    window[70:110] += 900.0
    series = np.concatenate([train, window])
    fp = make_filter_pair("db2")
    windows, _ = reduce_series(series, fp, ReductionPolicy(max_depth=1), 256)
    comps = compare_windows(series, windows, fp, train=512, quantile=0.002)
    target = comps[2]
    expected = set(range(70, 110))
    assert expected <= set(target.report.flags_original)
    assert expected <= set(target.report.flags_synthesized)
    assert target.report.preserved_recall >= 0.95
    # Both versions of every window were scored with one epsilon.
    assert len({c.epsilon for c in comps}) == 1


def test_explicit_model_argument_wins():
    rng = np.random.default_rng(16)
    series = rng.normal(size=256)
    fp = make_filter_pair("haar")
    windows, _ = reduce_series(series, fp, ReductionPolicy(max_depth=1), 256)
    model = fit_series_model(rng.normal(size=400), quantile=0.05)
    [comp] = compare_windows(series, windows, fp, model=model)
    assert comp.epsilon == model.epsilon


def test_training_prefix_validation():
    fp = make_filter_pair("haar")
    series = np.ones(64)
    windows, _ = reduce_series(series, fp, ReductionPolicy(max_depth=1), 64)
    with pytest.raises(InsufficientDataError):
        compare_windows(series, windows, fp, train=1)
    with pytest.raises(InsufficientDataError):
        compare_windows(series, windows, fp, train=65)


def test_window_beyond_series_is_an_alignment_error():
    fp = make_filter_pair("haar")
    series = np.ones(128)
    windows, _ = reduce_series(series, fp, ReductionPolicy(max_depth=1), 128)
    with pytest.raises(AlignmentError):
        compare_windows(series[:100], windows, fp)
