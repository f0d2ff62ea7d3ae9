"""Energy-guided wavelet packet reduction of counter windows.

At each level both children of the current block are computed, but only the
one holding more energy survives.  The kept branches form a path, one
approximation-or-detail choice per level, and the discarded sibling
energies are recorded so that the reconstruction error is known without
ever reconstructing: by orthonormality it equals the sum of everything that
was thrown away.

One ReducedRegister holds every window of a series, window r in row r of
each of its arrays, so a window does not know where it lies in a series.
Every window descends exactly to the requested depth, so reduction splits
every row at each level and synthesis rebuilds all rows as one block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, LengthError, PolicyError
from .wavelets import (
    FilterPair, analysis_step, energies, make_filter_pair, synthesis_step,
)

# Largest relative gap between two energies that the ledger says are equal.
LEDGER_RTOL = 1e-9


@dataclass(frozen=True)
class ReducedRegister:
    """Kept packet branches of k windows of one length, family and depth.

    Window r is row r of each array: high, ``(k, depth)``, is True where a
    level, root first, kept the detail branch; coeffs is ``(k,
    original_length >> depth)``; sibling_energies holds each level's
    ``(kept, discarded)`` pair, ``(k, depth, 2)``, and window r's discarded
    entries sum to the energy of its reconstruction error.  The arrays are
    held as read-only views.  A register that no decomposition could make
    is refused: no windows, a high that is not a boolean matrix, a ledger
    or coefficients of the wrong shape, a length that is not a power of two
    >= 2, a non-finite number, or coefficients whose energy is not the
    ledger's last ``kept`` within LEDGER_RTOL of the larger; a refused
    value names the first window that holds it.
    """

    family: str
    original_length: int
    high: np.ndarray
    coeffs: np.ndarray
    sibling_energies: np.ndarray

    def __post_init__(self):
        for name in ("high", "coeffs", "sibling_energies"):
            view = getattr(self, name).view()
            view.setflags(write=False)
            object.__setattr__(self, name, view)
        high, coeffs, ledger = self.high, self.coeffs, self.sibling_energies
        n = self.original_length
        if high.dtype != np.bool_ or high.ndim != 2 or not high.shape[1]:
            raise DataError(
                f"high must be a (windows, depth >= 1) boolean matrix, got {high.dtype} "
                f"of shape {high.shape}"
            )
        k, depth = high.shape
        if not k:
            raise LengthError("no windows")
        if ledger.shape != (k, depth, 2):
            raise LengthError(f"sibling_energies of shape {ledger.shape} for high {high.shape}")
        if n < 2 or n & (n - 1):
            raise LengthError(f"original_length {n} is not a power of two >= 2")
        if not n >> depth or coeffs.shape != (k, n >> depth):
            raise LengthError(
                f"coefficients of shape {coeffs.shape} do not rebuild {k} windows of "
                f"{n} samples at depth {depth}"
            )
        for bad, what in ((~np.isfinite(coeffs).all(axis=1), "coefficients"),
                          (~np.isfinite(ledger).all(axis=(1, 2)), "sibling_energies")):
            if bad.any():
                raise DataError(f"window {bad.argmax()}: non-finite {what}")
        kept = ledger[:, -1, 0]
        with np.errstate(over="ignore"):  # an energy that overflows is refused
            held = energies(coeffs)
            bad = ~np.isfinite(held) | (
                np.abs(held - kept) > LEDGER_RTOL * np.maximum(held, kept)
            )
        if bad.any():
            r = bad.argmax()
            raise DataError(
                f"window {r}: coefficients hold energy {float(held[r])!r}, but the "
                f"ledger keeps {float(kept[r])!r}"
            )

    @property
    def depth(self) -> int:
        return self.high.shape[1]

    def discarded_energy(self) -> np.ndarray:
        """Energy of each window's reconstruction error, ``(k,)``."""
        return self.sibling_energies[:, :, 1].sum(axis=1)


def decompose(signal, filters: FilterPair, depth: int) -> ReducedRegister:
    """Reduce one window to its strongest packet branch, a one-window
    register; see decompose_windows."""
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise LengthError(f"expected one window, got shape {x.shape}")
    return decompose_windows(x[None, :], filters, depth)


def decompose_windows(windows, filters: FilterPair, depth: int) -> ReducedRegister:
    """Reduce every row of a ``(windows, n)`` matrix to its strongest branch.

    Each of the depth levels splits the whole block and keeps, per row, the
    child holding more energy; ties keep the approximation branch.  Rows do
    not mix, so each row splits as it would alone, bit for bit.  The window
    length n must be a power of two with room for depth halvings, depth an
    integer of at least 1, and the matrix must hold at least one window.
    """
    x = np.asarray(windows, dtype=np.float64)
    if x.ndim != 2:
        raise LengthError(f"expected a (windows, n) matrix, got shape {x.shape}")
    k, n = x.shape
    if n < 2 or n & (n - 1):
        raise LengthError(f"window length must be a power of two >= 2, got {n}")
    if type(depth) is bool or not isinstance(depth, (int, np.integer)):
        raise PolicyError(f"depth must be an integer, got {depth!r}")
    if depth < 1:
        raise PolicyError(f"depth must be at least 1, got {depth}")
    if n >> depth < 1:
        raise PolicyError(f"depth {depth} exceeds log2 of the window length {n}")

    high = np.empty((k, depth), dtype=bool)
    ledger = np.empty((k, depth, 2))
    block = x
    for level in range(depth):
        approx, detail = analysis_step(block, filters)
        e_lo, e_hi = energies(approx), energies(detail)
        high[:, level] = up = e_hi > e_lo
        ledger[:, level, 0] = np.where(up, e_hi, e_lo)
        ledger[:, level, 1] = np.where(up, e_lo, e_hi)
        block = np.where(up[:, None], detail, approx)
    return ReducedRegister(filters.family, n, high, block, ledger)


def synthesize(reduced: ReducedRegister) -> np.ndarray:
    """Rebuild a register's windows back to back as one series: a
    one-window register gives its window.  See synthesize_windows."""
    return synthesize_windows(reduced).ravel()


def synthesize_windows(reduced: ReducedRegister) -> np.ndarray:
    """Rebuild every window of a register from its kept branch, in row order.

    Discarded siblings enter as zero blocks, so each window is the orthogonal
    projection of its original window onto the kept branch's subspace.  The
    register's family names the filter bank that rebuilds it.  All windows
    are rebuilt as one block, level by level, into a ``(windows, n)``
    matrix; rows do not mix, so a window rebuilds the same bits in any batch.
    """
    filters = make_filter_pair(reduced.family)
    current = reduced.coeffs
    for level in range(reduced.depth - 1, -1, -1):
        high = reduced.high[:, level, None]
        zeros = np.zeros_like(current)
        current = synthesis_step(
            np.where(high, zeros, current), np.where(high, current, zeros), filters
        )
    return current


def compression_ratio(reduced: ReducedRegister) -> float:
    """Fraction of samples dropped: 0.5 at depth 1, 0.75 at depth 2, and so on."""
    return 1.0 - reduced.coeffs.shape[1] / reduced.original_length
