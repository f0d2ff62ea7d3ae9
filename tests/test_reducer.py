import math

import numpy as np
import pytest

from regwave.errors import FamilyMismatchError, InputError, LengthError, PolicyError
from regwave.reducer import (
    ReducedRegister,
    compression_ratio,
    decompose,
    decompose_windows,
    synthesize,
    synthesize_windows,
)
from regwave.wavelets import analysis_step, energy, make_filter_pair

SQRT2 = math.sqrt(2.0)


def test_depth_one_halves_a_256_window():
    fp = make_filter_pair("haar")
    x = np.sin(np.arange(256) / 5.0)
    red = decompose(x, fp, 1)
    assert red.coeffs.shape[0] == 128
    assert compression_ratio(red) == 0.5
    assert len(red.path) == 1


def test_two_stages_take_1024_to_256():
    fp = make_filter_pair("db2")
    rng = np.random.default_rng(3)
    red = decompose(rng.normal(size=1024), fp, 2)
    assert red.coeffs.shape[0] == 256
    assert compression_ratio(red) == 0.75
    assert len(red.path) == 2


def test_constant_signal_rides_the_approximation_chain():
    fp = make_filter_pair("haar")
    red = decompose([5.0] * 8, fp, 3)
    assert red.path == "LLL"
    assert np.allclose(red.coeffs, [5.0 * 2 ** 1.5], atol=1e-12)
    # Detail energy of a constant is zero up to fused-multiply rounding.
    assert all(discarded <= 1e-20 for _, discarded in red.sibling_energies)
    assert np.allclose(synthesize(red), [5.0] * 8, atol=1e-9)


def _hand_built(**changes):
    fields = dict(
        original_length=4,
        family="haar",
        path="L",
        coeffs=np.array([SQRT2, SQRT2]),
        sibling_energies=((4.0, 0.0),),
    )
    return ReducedRegister(**{**fields, **changes})


def test_hand_built_register_synthesizes_to_constant():
    assert np.allclose(synthesize(_hand_built()), [1, 1, 1, 1], atol=1e-12)


INVALID_REGISTERS = {
    "empty path": {"path": "", "sibling_energies": (), "coeffs": np.ones(4)},
    "path letter X": {"path": "X"},
    "no ledger": {"sibling_energies": ()},
    "ledger too long": {"sibling_energies": ((4.0, 0.0), (4.0, 0.0))},
    "length 6": {"original_length": 6, "coeffs": np.ones(3)},
    "length 1": {"original_length": 1, "coeffs": np.ones(0)},
    "length 8 from 2 coefficients": {"original_length": 8},
    "3 coefficients": {"coeffs": np.ones(3)},
    "2-D coefficients": {"coeffs": np.ones((1, 2))},
    "depth 2 with 2 coefficients": {
        "path": "LL", "sibling_energies": ((4.0, 0.0), (4.0, 0.0))
    },
    "depth 3 of 4 samples": {
        "path": "LLL", "coeffs": np.ones(0), "sibling_energies": ((4.0, 0.0),) * 3
    },
    "nan coefficient": {"coeffs": np.array([SQRT2, np.nan])},
    "inf coefficient": {"coeffs": np.array([np.inf, SQRT2])},
    "-inf discarded energy": {"sibling_energies": ((4.0, -np.inf),)},
    "nan kept energy": {"sibling_energies": ((np.nan, 0.0),)},
    "coefficients off the ledger": {"sibling_energies": ((4.5, 0.0),)},
    "coefficient energy beyond float": {"coeffs": np.array([1e200, SQRT2])},
}


@pytest.mark.parametrize("changes", INVALID_REGISTERS.values(), ids=INVALID_REGISTERS)
def test_invalid_register_is_refused(changes):
    with pytest.raises(InputError):
        _hand_built(**changes)


@pytest.mark.parametrize("family", ("haar", "db2"))
@pytest.mark.parametrize("depth", (1, 2, 3))
def test_ledger_winner_and_error_identity(family, depth):
    fp = make_filter_pair(family)
    rng = np.random.default_rng(depth * 17)
    for _ in range(20):
        x = rng.normal(size=256)
        red = decompose(x, fp, depth)
        parent = energy(x)
        for kept, discarded in red.sibling_energies:
            assert kept >= discarded
            assert abs(kept + discarded - parent) <= 1e-9
            parent = kept
        err = energy(x - synthesize(red))
        assert abs(err - red.discarded_energy()) <= 1e-9


def test_depth_one_synthesis_equals_zeroed_detail_synthesis():
    # Independent spelling of the same projection via the raw filter-bank ops.
    from regwave.wavelets import synthesis_step

    fp = make_filter_pair("db2")
    rng = np.random.default_rng(23)
    x = rng.normal(size=256)
    red = decompose(x, fp, 1)
    approx, detail = analysis_step(x, fp)
    if red.path == "L":
        direct = synthesis_step(approx, np.zeros_like(detail), fp)
    else:
        direct = synthesis_step(np.zeros_like(approx), detail, fp)
    assert np.allclose(synthesize(red), direct, atol=1e-12)


def test_smooth_register_rmse_matches_discarded_energy():
    fp = make_filter_pair("db2")
    rng = np.random.default_rng(9)
    x = np.cumsum(rng.normal(size=256))
    red = decompose(x, fp, 1)
    rebuilt = synthesize(red)
    rmse = math.sqrt(float(np.mean((x - rebuilt) ** 2)))
    assert abs(rmse - math.sqrt(red.discarded_energy() / 256)) <= 1e-9


def test_tie_expands_the_approximation_branch():
    # A unit impulse splits its energy evenly between the two haar children.
    fp = make_filter_pair("haar")
    x = np.zeros(8)
    x[1] = 1.0
    red = decompose(x, fp, 1)
    kept, discarded = red.sibling_energies[0]
    assert abs(kept - discarded) < 1e-12
    assert red.path == "L"


def test_ratio_grows_with_depth():
    fp = make_filter_pair("haar")
    rng = np.random.default_rng(2)
    x = rng.normal(size=64)
    ratios = [compression_ratio(decompose(x, fp, d)) for d in (1, 2, 3)]
    assert ratios == [0.5, 0.75, 0.875]


def test_non_power_of_two_rejected():
    fp = make_filter_pair("haar")
    with pytest.raises(LengthError):
        decompose(np.zeros(24), fp, 1)


def test_depth_beyond_log2_rejected():
    fp = make_filter_pair("haar")
    with pytest.raises(PolicyError):
        decompose(np.ones(8), fp, 4)


def test_policy_validation():
    with pytest.raises(PolicyError, match="depth must be at least 1, got 0"):
        decompose(np.ones(8), make_filter_pair("haar"), 0)


def test_synthesize_windows_refuses_two_families():
    x = np.ones(8)
    reduced = [decompose(x, make_filter_pair(f), 1) for f in ("db2", "haar")]
    with pytest.raises(FamilyMismatchError, match=r"\['db2', 'haar'\]"):
        synthesize_windows(reduced)


def _lone_split(x, taps):
    # out[k] = sum_i taps[i] * x[(2k - i) mod n], summed in tap order.
    out = np.zeros(len(x) // 2)
    for i, h in enumerate(taps):
        out += h * np.roll(x[i % 2 :: 2], (i + 1) // 2)
    return out


def _lone_decompose(x, fp, depth):
    # The per-window greedy descent that the batched form replaced.
    coeffs, path, ledger = x, "", []
    for _ in range(depth):
        approx, detail = _lone_split(coeffs, fp.lp), _lone_split(coeffs, fp.hp)
        e_lo = float(np.add.reduce(approx * approx))
        e_hi = float(np.add.reduce(detail * detail))
        branch, block, kept, discarded = (
            ("H", detail, e_hi, e_lo) if e_hi > e_lo else ("L", approx, e_lo, e_hi)
        )
        path, coeffs = path + branch, block
        ledger.append((kept, discarded))
    return path, coeffs, tuple(ledger)


def _lone_synthesize(path, coeffs, fp):
    current = coeffs
    for branch in reversed(path):
        n = 2 * len(current)
        k = np.arange(len(current))
        zeros = np.zeros_like(current)
        a, d = (current, zeros) if branch == "L" else (zeros, current)
        out = np.zeros(n)
        for i in range(len(fp)):
            np.add.at(out, (2 * k - i) % n, fp.lp[i] * a + fp.hp[i] * d)
        current = out
    return current


def _mixed_windows(rows, n, seed):
    # Smooth, alternating, noisy and all-zero rows, so both branches win.
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, n)) * 10.0 ** rng.integers(-3, 6, size=(rows, 1))
    x[1::4] = np.cumsum(x[1::4], axis=1)
    x[2::4] *= (-1.0) ** np.arange(n)
    x[0] = 0.0
    return x


@pytest.mark.parametrize("family", ("haar", "db2", "db3", "db4"))
@pytest.mark.parametrize("depth", (1, 2, 3, 4))
@pytest.mark.parametrize("rows", (1, 24))
@pytest.mark.parametrize("n", (64, 256))
def test_batched_reduction_equals_lone_windows_bit_for_bit(n, family, depth, rows):
    # At n = 64 and depth 4 the last split takes an 8-sample block, as short
    # as db4's filter allows, so every tap wraps round the block.
    fp = make_filter_pair(family)
    x = _mixed_windows(rows, n, depth * 10 + rows + n)
    reduced = decompose_windows(x, fp, depth)
    rebuilt = synthesize_windows(reduced)
    assert [window.shape for window in rebuilt] == [x.shape[1:]] * rows
    for r, red in enumerate(reduced):
        path, coeffs, ledger = _lone_decompose(x[r], fp, depth)
        assert (red.path, red.sibling_energies) == (path, ledger)
        assert red.coeffs.tobytes() == coeffs.tobytes()
        assert not red.coeffs.flags.writeable
        assert rebuilt[r].tobytes() == _lone_synthesize(path, coeffs, fp).tobytes()
        assert synthesize(red).tobytes() == rebuilt[r].tobytes()
    assert not np.signbit(rebuilt[0]).any()
    if rows > 1 and depth > 1:
        assert len({red.path for red in reduced}) > 1


def test_full_depth_haar_batch_equals_lone_windows():
    # Full depth ends by splitting 2-sample blocks, the shortest a split takes.
    fp = make_filter_pair("haar")
    x = _mixed_windows(9, 8, 5)
    for red, row in zip(decompose_windows(x, fp, 3), x):
        path, coeffs, ledger = _lone_decompose(row, fp, 3)
        assert (red.path, red.coeffs.tobytes(), red.sibling_energies) == (
            path, coeffs.tobytes(), ledger
        )


def test_synthesize_windows_refuses_mixed_depths():
    fp = make_filter_pair("db2")
    rng = np.random.default_rng(3)
    reduced = [decompose(rng.normal(size=32), fp, depth) for depth in (1, 3, 2)]
    with pytest.raises(LengthError, match=r"different depths \[1, 2, 3\]"):
        synthesize_windows(reduced)
    with pytest.raises(LengthError, match="no registers"):
        synthesize_windows([])


def test_synthesize_windows_refuses_two_lengths():
    fp = make_filter_pair("db2")
    reduced = [decompose(np.ones(n), fp, 1) for n in (16, 32, 16)]
    with pytest.raises(LengthError, match=r"\[16, 32\]"):
        synthesize_windows(reduced)
