import math

import numpy as np
import pytest

from regwave.errors import DataError, InputError, LengthError, PolicyError
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
    assert red.coeffs.shape == (1, 128)
    assert compression_ratio(red) == 0.5
    assert red.depth == 1


def test_two_stages_take_1024_to_256():
    fp = make_filter_pair("db2")
    rng = np.random.default_rng(3)
    red = decompose(rng.normal(size=1024), fp, 2)
    assert red.coeffs.shape == (1, 256)
    assert compression_ratio(red) == 0.75
    assert red.depth == 2


def test_constant_signal_rides_the_approximation_chain():
    fp = make_filter_pair("haar")
    red = decompose([5.0] * 8, fp, 3)
    assert red.high.tolist() == [[False, False, False]]
    assert np.allclose(red.coeffs, [[5.0 * 2 ** 1.5]], atol=1e-12)
    # Detail energy of a constant is zero up to fused-multiply rounding.
    assert (red.sibling_energies[..., 1] <= 1e-20).all()
    assert np.allclose(synthesize(red), [5.0] * 8, atol=1e-9)


def _fields():
    """Three valid windows of 4 samples at haar depth 1, as fresh arrays:
    windows 0 and 2 are the constants 1 and 2, and window 1 kept its detail
    branch."""
    return dict(
        family="haar",
        original_length=4,
        high=np.array([[False], [True], [False]]),
        coeffs=np.array([[SQRT2, SQRT2], [SQRT2, -SQRT2], [2 * SQRT2, 2 * SQRT2]]),
        sibling_energies=np.array([[[4.0, 0.0]], [[4.0, 0.0]], [[16.0, 0.0]]]),
    )


def _hand_built(**changes):
    return ReducedRegister(**{**_fields(), **changes})


def _in_window(r, name, index, value):
    """Changes that set one entry of window r of a hand-built field."""
    array = _fields()[name]
    array[(r, *index)] = value
    return {name: array}


def test_hand_built_register_synthesizes_to_constant():
    fp = make_filter_pair("haar")
    rebuilt = synthesize_windows(_hand_built())
    assert np.allclose(rebuilt[[0, 2]], [[1.0] * 4, [2.0] * 4], atol=1e-12)
    approx, detail = analysis_step(rebuilt[1], fp)
    assert np.allclose(approx, 0.0, atol=1e-12)
    assert np.allclose(detail, [SQRT2, -SQRT2], atol=1e-12)


def test_a_register_holds_read_only_views_of_its_arrays():
    fields = _fields()
    reduced = ReducedRegister(**fields)
    for name in ("high", "coeffs", "sibling_energies"):
        assert not getattr(reduced, name).flags.writeable
        assert fields[name].flags.writeable  # the caller's array is left as it was
        assert np.shares_memory(getattr(reduced, name), fields[name])


INVALID_REGISTERS = {
    "no windows": ({"high": np.zeros((0, 1), dtype=bool), "coeffs": np.ones((0, 2)),
                    "sibling_energies": np.ones((0, 1, 2))}, "^no windows$"),
    "empty path": ({"high": np.zeros((3, 0), dtype=bool), "coeffs": np.ones((3, 4)),
                    "sibling_energies": np.ones((3, 0, 2))}, "boolean matrix"),
    "float high": ({"high": np.zeros((3, 1))}, "boolean matrix, got float64"),
    "high without a window axis": ({"high": np.zeros(3, dtype=bool)}, "boolean matrix"),
    "no ledger": ({"sibling_energies": np.ones((3, 0, 2))}, "sibling_energies of shape"),
    "ledger too long": ({"sibling_energies": np.tile([4.0, 0.0], (3, 2, 1))},
                        "sibling_energies of shape"),
    "ledger of triples": ({"sibling_energies": np.tile([4.0, 0.0, 0.0], (3, 1, 1))},
                          "sibling_energies of shape"),
    "length 6": ({"original_length": 6, "coeffs": np.ones((3, 3))}, "not a power of two"),
    "length 1": ({"original_length": 1, "coeffs": np.ones((3, 0))}, "not a power of two"),
    "length 8 from 2 coefficients": ({"original_length": 8}, "do not rebuild"),
    "3 coefficients": ({"coeffs": np.ones((3, 3))}, "do not rebuild"),
    "coefficients without a window axis": ({"coeffs": np.ones(6)}, "do not rebuild"),
    "coefficients of 2 windows": ({"coeffs": np.ones((2, 2))}, "do not rebuild"),
    "depth 2 with 2 coefficients": ({"high": np.zeros((3, 2), dtype=bool),
                                     "sibling_energies": np.tile([4.0, 0.0], (3, 2, 1))},
                                    "do not rebuild"),
    "depth 3 of 4 samples": ({"high": np.zeros((3, 3), dtype=bool),
                              "coeffs": np.ones((3, 0)),
                              "sibling_energies": np.tile([4.0, 0.0], (3, 3, 1))},
                             "do not rebuild"),
    # One bad window in a valid batch: the refusal names it.
    "nan coefficient": (_in_window(1, "coeffs", (1,), np.nan),
                        "^window 1: non-finite coefficients$"),
    "inf coefficient": (_in_window(0, "coeffs", (0,), np.inf),
                        "^window 0: non-finite coefficients$"),
    "-inf discarded energy": (_in_window(2, "sibling_energies", (0, 1), -np.inf),
                              "^window 2: non-finite sibling_energies$"),
    "nan kept energy": (_in_window(1, "sibling_energies", (0, 0), np.nan),
                        "^window 1: non-finite sibling_energies$"),
    "coefficients off the ledger": (_in_window(1, "sibling_energies", (0, 0), 4.5),
                                    "^window 1: coefficients hold energy 4.0.*, "
                                    "but the ledger keeps 4.5$"),
    "coefficient energy beyond float": (_in_window(2, "coeffs", (0,), 1e200),
                                        "^window 2: coefficients hold energy inf"),
}


@pytest.mark.parametrize("changes,message", INVALID_REGISTERS.values(), ids=INVALID_REGISTERS)
def test_invalid_register_is_refused(changes, message):
    with pytest.raises(InputError, match=message):
        _hand_built(**changes)


def test_only_window_2_of_three_is_bad_and_named():
    ledger = _fields()["sibling_energies"]
    ledger[2, 0, 0] = 17.0
    with pytest.raises(DataError, match="^window 2: coefficients hold energy 16.0"):
        _hand_built(sibling_energies=ledger)
    # With windows 1 and 2 both bad, the first is named.
    ledger[1, 0, 0] = 5.0
    with pytest.raises(DataError, match="^window 1: coefficients hold energy"):
        _hand_built(sibling_energies=ledger)


def test_a_batch_of_no_windows_is_refused():
    with pytest.raises(LengthError, match="^no windows$"):
        decompose_windows(np.zeros((0, 8)), make_filter_pair("haar"), 1)


@pytest.mark.parametrize("family", ("haar", "db2"))
@pytest.mark.parametrize("depth", (1, 2, 3))
def test_ledger_winner_and_error_identity(family, depth):
    fp = make_filter_pair(family)
    rng = np.random.default_rng(depth * 17)
    for _ in range(20):
        x = rng.normal(size=256)
        red = decompose(x, fp, depth)
        parent = energy(x)
        for kept, discarded in red.sibling_energies[0].tolist():
            assert kept >= discarded
            assert abs(kept + discarded - parent) <= 1e-9
            parent = kept
        err = energy(x - synthesize(red))
        assert abs(err - red.discarded_energy()[0]) <= 1e-9


def test_depth_one_synthesis_equals_zeroed_detail_synthesis():
    # Independent spelling of the same projection via the raw filter-bank ops.
    from regwave.wavelets import synthesis_step

    fp = make_filter_pair("db2")
    rng = np.random.default_rng(23)
    x = rng.normal(size=256)
    red = decompose(x, fp, 1)
    approx, detail = analysis_step(x, fp)
    if not red.high[0, 0]:
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
    assert abs(rmse - math.sqrt(red.discarded_energy()[0] / 256)) <= 1e-9


def test_tie_expands_the_approximation_branch():
    # A unit impulse splits its energy evenly between the two haar children.
    fp = make_filter_pair("haar")
    x = np.zeros(8)
    x[1] = 1.0
    red = decompose(x, fp, 1)
    kept, discarded = red.sibling_energies[0, 0]
    assert abs(kept - discarded) < 1e-12
    assert red.high.tolist() == [[False]]


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


@pytest.mark.parametrize("reduce", (decompose, decompose_windows))
@pytest.mark.parametrize("depth", (2.0, "2", True, None), ids=repr)
def test_depth_that_is_not_an_integer_is_refused(reduce, depth):
    x = np.arange(16.0).reshape(2, 8)
    with pytest.raises(PolicyError, match=f"^depth must be an integer, got {depth!r}$"):
        reduce(x[0] if reduce is decompose else x, make_filter_pair("haar"), depth)


def test_numpy_integer_depth_is_an_integer():
    x = np.arange(16.0).reshape(2, 8)
    fp = make_filter_pair("haar")
    red = decompose_windows(x, fp, np.int64(2))
    assert red.depth == 2 and type(red.depth) is int
    assert red.coeffs.tobytes() == decompose_windows(x, fp, 2).coeffs.tobytes()


def _lone_split(x, taps):
    # out[k] = sum_i taps[i] * x[(2k - i) mod n], summed in tap order.
    out = np.zeros(len(x) // 2)
    for i, h in enumerate(taps):
        out += h * np.roll(x[i % 2 :: 2], (i + 1) // 2)
    return out


def _lone_decompose(x, fp, depth):
    # The per-window greedy descent that the batched form replaced; returns
    # the kept branch per level (True for detail), coefficients and ledger.
    coeffs, high, ledger = x, [], []
    for _ in range(depth):
        approx, detail = _lone_split(coeffs, fp.lp), _lone_split(coeffs, fp.hp)
        e_lo = float(np.add.reduce(approx * approx))
        e_hi = float(np.add.reduce(detail * detail))
        up = e_hi > e_lo
        coeffs, kept, discarded = (detail, e_hi, e_lo) if up else (approx, e_lo, e_hi)
        high.append(up)
        ledger.append((kept, discarded))
    return high, coeffs, ledger


def _lone_synthesize(high, coeffs, fp):
    current = coeffs
    for up in reversed(high):
        n = 2 * len(current)
        k = np.arange(len(current))
        zeros = np.zeros_like(current)
        a, d = (zeros, current) if up else (current, zeros)
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
    assert rebuilt.shape == x.shape
    assert (reduced.family, reduced.original_length) == (family, n)
    for array in (reduced.high, reduced.coeffs, reduced.sibling_energies):
        assert not array.flags.writeable
    for r in range(rows):
        high, coeffs, ledger = _lone_decompose(x[r], fp, depth)
        assert reduced.high[r].tolist() == high
        assert reduced.sibling_energies[r].tolist() == [list(pair) for pair in ledger]
        assert reduced.coeffs[r].tobytes() == coeffs.tobytes()
        assert rebuilt[r].tobytes() == _lone_synthesize(high, coeffs, fp).tobytes()
        # A window reduced and rebuilt alone gives the same bits.
        assert synthesize(decompose(x[r], fp, depth)).tobytes() == rebuilt[r].tobytes()
    assert not np.signbit(rebuilt[0]).any()
    if rows > 1 and depth > 1:
        assert len(np.unique(reduced.high, axis=0)) > 1


def test_full_depth_haar_batch_equals_lone_windows():
    # Full depth ends by splitting 2-sample blocks, the shortest a split takes.
    fp = make_filter_pair("haar")
    x = _mixed_windows(9, 8, 5)
    reduced = decompose_windows(x, fp, 3)
    for r, row in enumerate(x):
        high, coeffs, ledger = _lone_decompose(row, fp, 3)
        assert reduced.high[r].tolist() == high
        assert reduced.coeffs[r].tobytes() == coeffs.tobytes()
        assert reduced.sibling_energies[r].tolist() == [list(pair) for pair in ledger]


def test_synthesize_rebuilds_every_window_back_to_back():
    fp = make_filter_pair("db2")
    x = np.random.default_rng(3).normal(size=(3, 32))
    reduced = decompose_windows(x, fp, 2)
    assert synthesize(reduced).tobytes() == synthesize_windows(reduced).tobytes()
    assert synthesize(reduced).shape == (96,)
