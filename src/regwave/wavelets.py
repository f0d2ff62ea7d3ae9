"""Orthonormal two-channel wavelet filter bank with periodic boundaries.

One analysis step convolves a signal circularly with a quadrature mirror
filter pair and keeps every second output sample, producing half-length
approximation and detail blocks.  The synthesis step is the exact adjoint of
that map, so for even-length signals a round trip restores the input to
floating point accuracy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import LengthError, UnknownFamilyError

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)

# Analysis low-pass taps per family.  haar and db2 have closed forms; the
# db3/db4 taps are the minimum-phase orthonormal filters with 3 and 4
# vanishing moments, frozen here at full double precision.
_LOWPASS: dict[str, tuple[float, ...]] = {
    "haar": (1.0 / _SQRT2, 1.0 / _SQRT2),
    "db2": (
        (1.0 + _SQRT3) / (4.0 * _SQRT2),
        (3.0 + _SQRT3) / (4.0 * _SQRT2),
        (3.0 - _SQRT3) / (4.0 * _SQRT2),
        (1.0 - _SQRT3) / (4.0 * _SQRT2),
    ),
    "db3": (
        0.3326705529500826,
        0.8068915093110924,
        0.4598775021184915,
        -0.1350110200102546,
        -0.08544127388202662,
        0.035226291885709554,
    ),
    "db4": (
        0.23037781330889645,
        0.7148465705529156,
        0.630880767929859,
        -0.02798376941685959,
        -0.18703481171909309,
        0.03084138183556063,
        0.03288301166688517,
        -0.010597401785069018,
    ),
}

FAMILIES = tuple(_LOWPASS)


@dataclass(frozen=True)
class FilterPair:
    """Analysis and synthesis taps of one orthonormal filter bank."""

    family: str
    lp: np.ndarray
    hp: np.ndarray
    lp_syn: np.ndarray
    hp_syn: np.ndarray

    def __len__(self) -> int:
        return len(self.lp)


def make_filter_pair(family: str) -> FilterPair:
    """Build the filter bank for a named family.

    Args:
        family: one of ``haar``, ``db2``, ``db3``, ``db4``.

    Returns:
        A FilterPair whose high-pass taps mirror the low-pass ones
        (``hp[i] = (-1)**i * lp[L-1-i]``) and whose synthesis taps are the
        time-reversed analysis taps.

    Raises:
        UnknownFamilyError: for any other family name.
    """
    try:
        taps = _LOWPASS[family]
    except KeyError:
        raise UnknownFamilyError(family) from None
    lp = np.array(taps, dtype=np.float64)
    signs = np.where(np.arange(len(lp)) % 2 == 0, 1.0, -1.0)
    hp = signs * lp[::-1]
    pair = FilterPair(family, lp, hp, lp[::-1].copy(), hp[::-1].copy())
    for arr in (pair.lp, pair.hp, pair.lp_syn, pair.hp_syn):
        arr.setflags(write=False)
    return pair


def _check_length(n: int, taps: int, what: str) -> None:
    if n % 2 != 0:
        raise LengthError(f"{what} length must be even, got {n}")
    if n < taps:
        raise LengthError(f"{what} length {n} is shorter than the filter ({taps} taps)")


@functools.lru_cache(maxsize=64)
def _circular_index(taps: int, n: int) -> np.ndarray:
    """Row k, column i holds ``(2k - i) mod n``: the sample that tap i of
    output k of an analysis step reads."""
    k = np.arange(n // 2)
    idx = (2 * k[:, None] - np.arange(taps)[None, :]) % n
    idx.setflags(write=False)
    return idx


def analysis_step(signal, filters: FilterPair) -> tuple[np.ndarray, np.ndarray]:
    """Split signals into approximation and detail halves along the last axis.

    Output sample k of each branch is the circular correlation
    ``sum_i taps[i] * signal[(2k - i) mod N]``, i.e. the even-indexed phase of
    a periodic convolution.  A ``(windows, N)`` matrix is split in one gather
    and one matrix-vector product per branch over all its rows.  For every
    power-of-two N each row then equals the split of that row alone bit for
    bit; for other lengths the BLAS kernel may round rows of a batch
    differently from a lone window.

    Args:
        signal: array of shape ``(..., N)`` with N even and at least as long
            as the filter.

    Returns:
        ``(approx, detail)``, each of shape ``(..., N // 2)``.
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim < 1:
        raise LengthError(f"expected a signal with a sample axis, got shape {x.shape}")
    n = x.shape[-1]
    _check_length(n, len(filters), "signal")
    windows = x[..., _circular_index(len(filters), n)].reshape(-1, len(filters))
    shape = x.shape[:-1] + (n // 2,)
    if n == 2:
        # numpy takes a one-row product as a vector dot, which rounds unlike
        # a matrix-vector product; one dot per window keeps a batch equal to
        # its windows.
        windows = windows[:, None, :]
        return (windows @ filters.lp[:, None]).reshape(shape), (
            windows @ filters.hp[:, None]
        ).reshape(shape)
    return (windows @ filters.lp).reshape(shape), (windows @ filters.hp).reshape(shape)


def synthesis_step(approx, detail, filters: FilterPair) -> np.ndarray:
    """Invert one analysis step along the last axis.

    Adjoint of :func:`analysis_step`: each coefficient scatters its synthesis
    taps back onto the circular positions it was drawn from.  Tap i of
    coefficient k lands on ``(2k - i) mod N``, so one tap feeds every sample
    of one parity, shifted circularly by ``(i + 1) // 2``: two slice
    additions per tap, and every sample sums its taps in tap order.  Exact
    inverse because the filter bank is orthonormal.
    """
    a = np.asarray(approx, dtype=np.float64)
    d = np.asarray(detail, dtype=np.float64)
    if a.shape != d.shape or a.ndim < 1:
        raise LengthError(
            f"approximation and detail shapes differ: {a.shape} vs {d.shape}"
        )
    half = a.shape[-1]
    n = 2 * half
    if n < len(filters):
        raise LengthError(f"output length {n} is shorter than the filter ({len(filters)} taps)")
    # Starting from +0.0 keeps -0.0 out of the result.
    out = np.zeros(a.shape[:-1] + (n,))
    for i in range(len(filters)):
        v = filters.lp[i] * a + filters.hp[i] * d
        phase = out[..., i % 2 :: 2]
        shift = (i + 1) // 2 % half
        phase[..., : half - shift] += v[..., shift:]
        phase[..., half - shift :] += v[..., :shift]
    return out


def energies(blocks) -> np.ndarray:
    """Sum of squares of every row of a ``(windows, m)`` matrix.

    Each row is one vector dot product, so every entry equals
    ``energy(row)`` bit for bit.
    """
    v = np.asarray(blocks, dtype=np.float64)
    return (v[:, None, :] @ v[:, :, None]).reshape(v.shape[0])


def energy(values) -> float:
    """Sum of squares; zero for an empty block."""
    v = np.asarray(values, dtype=np.float64).ravel()
    return float(v @ v) if v.size else 0.0
