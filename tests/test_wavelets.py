import math

import numpy as np
import pytest

from regwave.errors import LengthError, UnknownFamilyError
from regwave.wavelets import (
    FAMILIES,
    analysis_step,
    energies,
    energy,
    make_filter_pair,
    synthesis_step,
)

SQRT2 = math.sqrt(2.0)


def circular_analysis_oracle(x, taps):
    # Direct double loop over the defining sum, no vectorization tricks.
    n = len(x)
    out = np.zeros(n // 2)
    for k in range(n // 2):
        acc = 0.0
        for i, h in enumerate(taps):
            acc += h * x[(2 * k - i) % n]
        out[k] = acc
    return out


def analysis_matrix(n, fp):
    # The analysis step as an explicit n x n matrix: top half low-pass rows,
    # bottom half high-pass rows.
    A = np.zeros((n, n))
    for k in range(n // 2):
        for i in range(len(fp)):
            A[k, (2 * k - i) % n] += fp.lp[i]
            A[n // 2 + k, (2 * k - i) % n] += fp.hp[i]
    return A


def test_haar_taps_are_the_forced_pair():
    fp = make_filter_pair("haar")
    assert np.allclose(fp.lp, [1 / SQRT2, 1 / SQRT2], atol=1e-15)
    assert np.allclose(fp.hp, [1 / SQRT2, -1 / SQRT2], atol=1e-15)


@pytest.mark.parametrize("family", FAMILIES)
def test_filter_invariants(family):
    fp = make_filter_pair(family)
    L = len(fp)
    assert L % 2 == 0 and L >= 2
    assert abs(fp.lp.sum() - SQRT2) < 1e-12
    assert abs(fp.lp @ fp.lp - 1.0) < 1e-12
    for shift in range(2, L, 2):
        assert abs(fp.lp[:-shift] @ fp.lp[shift:]) < 1e-12
    for i in range(L):
        assert abs(fp.hp[i] - (-1.0) ** i * fp.lp[L - 1 - i]) < 1e-15


def test_unknown_family_names_the_identifier():
    with pytest.raises(UnknownFamilyError, match="db99"):
        make_filter_pair("db99")


def test_constant_signal_has_no_detail():
    fp = make_filter_pair("haar")
    approx, detail = analysis_step([1, 1, 1, 1], fp)
    assert np.allclose(approx, [SQRT2, SQRT2], atol=1e-12)
    assert np.allclose(detail, [0, 0], atol=1e-12)


def test_alternating_signal_has_no_approximation():
    fp = make_filter_pair("haar")
    approx, detail = analysis_step([1, -1, 1, -1], fp)
    assert np.allclose(approx, [0, 0], atol=1e-12)
    assert np.allclose(detail, [SQRT2, SQRT2], atol=1e-12)


def test_synthesis_inverts_the_hand_cases():
    fp = make_filter_pair("haar")
    assert np.allclose(synthesis_step([SQRT2, SQRT2], [0, 0], fp), [1, 1, 1, 1])
    assert np.allclose(synthesis_step([0, 0], [SQRT2, SQRT2], fp), [1, -1, 1, -1])


@pytest.mark.parametrize("family", FAMILIES)
def test_analysis_matches_direct_convolution_oracle(family):
    # Both sum the taps in tap order from +0.0, so they agree to the bit at
    # every even length, powers of two or not.
    fp = make_filter_pair(family)
    rng = np.random.default_rng(7)
    for n in range(len(fp), 257, 2):
        x = rng.normal(size=n)
        approx, detail = analysis_step(x, fp)
        assert approx.tobytes() == circular_analysis_oracle(x, fp.lp).tobytes()
        assert detail.tobytes() == circular_analysis_oracle(x, fp.hp).tobytes()


@pytest.mark.parametrize("family", ("haar", "db2"))
def test_analysis_matrix_is_orthogonal(family):
    fp = make_filter_pair(family)
    for n in (8, 32):
        A = analysis_matrix(n, fp)
        assert np.max(np.abs(A @ A.T - np.eye(n))) < 1e-12


@pytest.mark.parametrize("family", ("haar", "db2"))
def test_synthesis_is_the_matrix_transpose(family):
    fp = make_filter_pair(family)
    rng = np.random.default_rng(11)
    n = 32
    A = analysis_matrix(n, fp)
    coeffs = rng.normal(size=n)
    rebuilt = synthesis_step(coeffs[: n // 2], coeffs[n // 2 :], fp)
    assert np.allclose(rebuilt, A.T @ coeffs, atol=1e-12)


@pytest.mark.parametrize("family", ("haar", "db2"))
@pytest.mark.parametrize("n", (8, 64, 256, 1024))
def test_perfect_reconstruction_property(family, n):
    fp = make_filter_pair(family)
    rng = np.random.default_rng(n * 31 + len(family))
    for _ in range(100):
        x = rng.normal(size=n)
        approx, detail = analysis_step(x, fp)
        assert np.max(np.abs(synthesis_step(approx, detail, fp) - x)) <= 1e-9


@pytest.mark.parametrize("family", FAMILIES)
def test_energy_conservation(family):
    fp = make_filter_pair(family)
    rng = np.random.default_rng(101)
    for n in (16, 256):
        for _ in range(25):
            x = rng.normal(size=n)
            approx, detail = analysis_step(x, fp)
            assert abs(energy(approx) + energy(detail) - energy(x)) <= 1e-9


@pytest.mark.parametrize("family", ("haar", "db2", "db4"))
def test_two_shift_of_signal_one_shifts_both_blocks(family):
    fp = make_filter_pair(family)
    rng = np.random.default_rng(5)
    x = rng.normal(size=64)
    a0, d0 = analysis_step(x, fp)
    a1, d1 = analysis_step(np.roll(x, 2), fp)
    assert np.allclose(a1, np.roll(a0, 1), atol=1e-12)
    assert np.allclose(d1, np.roll(d0, 1), atol=1e-12)


def test_energy_hand_values():
    assert energy([3, 4]) == 25.0
    assert energy([]) == 0.0
    assert abs(energy([SQRT2, SQRT2]) - 4.0) < 1e-12


def test_odd_length_rejected():
    fp = make_filter_pair("haar")
    with pytest.raises(LengthError):
        analysis_step([1.0, 2.0, 3.0], fp)


def test_signal_shorter_than_filter_rejected():
    fp = make_filter_pair("db4")
    with pytest.raises(LengthError):
        analysis_step([1.0, 2.0], fp)


def test_mismatched_block_lengths_rejected():
    fp = make_filter_pair("haar")
    with pytest.raises(LengthError):
        synthesis_step([1.0, 2.0], [1.0], fp)


def test_taps_are_read_only():
    fp = make_filter_pair("db2")
    with pytest.raises(ValueError):
        fp.lp[0] = 0.0


def _lone_synthesis(a, d, fp):
    # The single-window scatter-add that the batched synthesis replaced.
    n = 2 * len(a)
    out = np.zeros(n)
    k = np.arange(len(a))
    for i in range(len(fp)):
        np.add.at(out, (2 * k - i) % n, fp.lp[i] * a + fp.hp[i] * d)
    return out


@pytest.mark.parametrize(
    "family, n",
    [
        (family, n)
        for family in FAMILIES
        for n in (2, 4, 8, 16, 64, 256)
        if n >= len(make_filter_pair(family))
    ],
)
@pytest.mark.parametrize("rows", (1, 3, 37))
def test_batched_steps_equal_lone_windows_bit_for_bit(family, n, rows):
    fp = make_filter_pair(family)
    rng = np.random.default_rng(n + rows)
    x = rng.normal(size=(rows, n)) * 10.0 ** rng.integers(-5, 8, size=(rows, 1))
    x[0] = 0.0
    approx, detail = analysis_step(x, fp)
    rebuilt = synthesis_step(approx, detail, fp)
    for r in range(rows):
        a = circular_analysis_oracle(x[r], fp.lp)
        d = circular_analysis_oracle(x[r], fp.hp)
        assert approx[r].tobytes() == a.tobytes() and detail[r].tobytes() == d.tobytes()
        lone = _lone_synthesis(approx[r], detail[r], fp)
        assert rebuilt[r].tobytes() == lone.tobytes()
    assert not np.signbit(rebuilt[0]).any()
    assert not np.signbit(synthesis_step(np.zeros(n // 2), -np.zeros(n // 2), fp)).any()
    assert not np.signbit(analysis_step(-np.zeros(n), fp)).any()


@pytest.mark.parametrize("rows", (1, 3, 37))
def test_row_energies_equal_each_row_alone_bit_for_bit(rows):
    rng = np.random.default_rng(3)
    for m in (1, 2, 5, 64, 1000):
        blocks = rng.normal(size=(rows, m)) * 1e3
        alone = [float(np.add.reduce(v * v)) for v in blocks]
        assert energies(blocks).tolist() == alone
        # A column-major batch sums its rows in the same order.
        assert energies(np.asfortranarray(blocks)).tolist() == alone
        assert [energy(v) for v in blocks] == alone
