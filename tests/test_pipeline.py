import numpy as np
import pytest

from regwave.errors import AlignmentError, InsufficientDataError
from regwave.gaussian import calibrate, fit
from regwave.pipeline import compare_windows, reduce_series
from regwave.reducer import ReductionPolicy, decompose
from regwave.wavelets import energy, make_filter_pair


def test_reduce_series_window_arithmetic():
    fp = make_filter_pair("haar")
    policy = ReductionPolicy(max_depth=1)
    registers, dropped = reduce_series(np.ones(300), fp, policy, 256)
    assert [r.original_length for r in registers] == [256]
    assert dropped == 44
    ramp = np.arange(512.0)
    registers, dropped = reduce_series(ramp, fp, policy, 256)
    # Register r is window r, samples [256 r, 256 (r + 1)).
    for r, register in enumerate(registers):
        alone = decompose(ramp[256 * r : 256 * (r + 1)], fp, policy)
        assert np.array_equal(register.coeffs, alone.coeffs)
    assert len(registers) == 2
    assert dropped == 0
    with pytest.raises(InsufficientDataError, match="window must be at least 2"):
        reduce_series(np.ones(100), fp, policy, 1)


def test_reduce_series_drops_the_partial_tail():
    fp = make_filter_pair("haar")
    rng = np.random.default_rng(0)
    registers, dropped = reduce_series(
        rng.normal(size=300), fp, ReductionPolicy(max_depth=1), 256
    )
    assert len(registers) == 1
    assert dropped == 44
    assert registers[0].coeffs.shape[0] == 128


def test_reduce_series_needs_one_full_window():
    fp = make_filter_pair("haar")
    with pytest.raises(InsufficientDataError):
        reduce_series(np.ones(100), fp, ReductionPolicy(max_depth=1), 256)


def test_lossless_window_compares_clean():
    fp = make_filter_pair("haar")
    series = np.full(64, 100.0)
    registers, _ = reduce_series(series, fp, ReductionPolicy(max_depth=1), 64)
    [report] = compare_windows(series, registers, quantile=0.01).reports
    # A constant register is pure approximation; only rounding survives.
    assert report.rmse <= 1e-9
    assert report.prd <= 1e-9
    assert report.jaccard == 1.0
    assert report.flags_original == report.flags_synthesized == ()


def test_white_noise_error_energy_matches_discarded():
    fp = make_filter_pair("db2")
    rng = np.random.default_rng(44)
    series = rng.normal(size=256)
    registers, _ = reduce_series(series, fp, ReductionPolicy(max_depth=1), 256)
    comp = compare_windows(series, registers)
    residual = comp.reports[0].rmse**2 * 256
    assert abs(residual - registers[0].discarded_energy()) <= 1e-9
    assert abs(residual - energy(series - comp.synthesized[0])) <= 1e-9


def test_shared_model_scores_both_series():
    rng = np.random.default_rng(15)
    train = rng.normal(1000.0, 30.0, size=512)
    window = rng.normal(1000.0, 30.0, size=256)
    window[70:110] += 900.0
    series = np.concatenate([train, window])
    fp = make_filter_pair("db2")
    registers, _ = reduce_series(series, fp, ReductionPolicy(max_depth=1), 256)
    model = calibrate(fit(train), train, quantile=0.002)
    comp = compare_windows(series, registers, model=model)
    target = comp.reports[2]
    expected = set(range(70, 110))
    assert expected <= set(target.flags_original)
    assert expected <= set(target.flags_synthesized)
    assert target.preserved_recall >= 0.95
    # Both versions of every window were scored with one epsilon.
    assert len(set(comp.epsilon.tolist())) == 1


def test_explicit_model_argument_wins():
    rng = np.random.default_rng(16)
    series = rng.normal(size=256)
    fp = make_filter_pair("haar")
    registers, _ = reduce_series(series, fp, ReductionPolicy(max_depth=1), 256)
    train = rng.normal(size=400)
    model = calibrate(fit(train), train, quantile=0.05)
    assert compare_windows(series, registers, model=model).epsilon.tolist() == [
        model.epsilon
    ]
    with pytest.raises(InsufficientDataError, match="model has no threshold"):
        compare_windows(series, registers, model=fit(train))


def test_window_beyond_series_is_an_alignment_error():
    fp = make_filter_pair("haar")
    series = np.ones(384)
    registers, _ = reduce_series(series, fp, ReductionPolicy(max_depth=1), 128)
    with pytest.raises(AlignmentError, match=r"window 0 spans \[0, 128\)"):
        compare_windows(series[:100], registers[:1])
    with pytest.raises(AlignmentError, match=r"window 2 spans \[256, 384\) .* 383 samples"):
        compare_windows(series[:383], registers)


def test_window_not_reduced_into_its_register_is_an_alignment_error():
    fp = make_filter_pair("db2")
    series = np.random.default_rng(17).normal(size=3 * 64)
    registers, _ = reduce_series(series, fp, ReductionPolicy(max_depth=2), 64)
    other = series.copy()
    other[64:] *= 1.0 + 1e-8  # window energies grow by 2e-8 relative
    with pytest.raises(AlignmentError, match=r"window 1 holds energy .*: it was not reduced"):
        compare_windows(other, registers)
    other[64:] = series[64:] * (1.0 + 1e-11)  # within LEDGER_RTOL
    assert len(compare_windows(other, registers).reports) == 3
