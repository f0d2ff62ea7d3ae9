import numpy as np
import pytest

from regwave.errors import LengthError, UndefinedMetricError
from regwave.metrics import build_report, jaccard, prd, rmse
from regwave.wavelets import energy


def test_rmse_of_identical_series_is_zero():
    x = np.array([1.0, 2.0, 3.0])
    assert rmse(x, x) == 0.0


def test_rmse_hand_value():
    assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5))


def test_prd_of_half_amplitude_copy_is_fifty():
    rng = np.random.default_rng(1)
    x = rng.normal(size=50)
    assert prd(x, x / 2) == pytest.approx(50.0, rel=1e-12)


def test_prd_rejects_zero_reference():
    with pytest.raises(UndefinedMetricError):
        prd([0.0, 0.0], [1.0, 1.0])


def test_length_mismatch_rejected():
    with pytest.raises(LengthError):
        rmse([1.0], [1.0, 2.0])


def test_jaccard_hand_values():
    assert jaccard({1, 2}, {2, 3}) == pytest.approx(1 / 3)
    assert jaccard(set(), set()) == 1.0
    assert jaccard({1}, set()) == 0.0


def _masks(n, *flag_lists):
    masks = np.zeros((len(flag_lists), n), dtype=bool)
    for row, flags in zip(masks, flag_lists):
        row[flags] = True
    return masks


def test_report_identities():
    rng = np.random.default_rng(6)
    original = rng.normal(size=64)
    synthesized = original + rng.normal(scale=0.1, size=64)
    [report] = build_report(
        [0.5], original[None], synthesized[None], _masks(64, [3, 5, 9]),
        _masks(64, [5, 9, 11]),
    )
    assert report.flags_original == (3, 5, 9)
    assert report.flags_synthesized == (5, 9, 11)
    assert report.jaccard == pytest.approx(2 / 4)
    assert report.preserved_recall == pytest.approx(2 / 3)
    assert report.preserved_precision == pytest.approx(2 / 3)
    # rmse^2 * N equals the energy of the residual.
    assert report.rmse**2 * 64 == pytest.approx(
        energy(original - synthesized), abs=1e-9
    )


def test_report_empty_flag_conventions():
    x = np.ones((1, 8))
    [report] = build_report([0.5], x, x, _masks(8, []), _masks(8, []))
    assert report.jaccard == 1.0
    assert report.preserved_precision == 1.0
    assert report.preserved_recall == 1.0
    assert report.rmse == 0.0
    assert report.flags_original == report.flags_synthesized == ()


def test_report_of_an_all_zero_row_is_undefined():
    x = np.ones((3, 8))
    x[1] = 0.0
    flags = _masks(8, [], [], [])
    with pytest.raises(UndefinedMetricError, match="prd is undefined for an all-zero reference"):
        build_report([0.5] * 3, x, x + 1.0, flags, flags)
