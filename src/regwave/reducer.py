"""Energy-guided wavelet packet reduction of counter windows.

At each level both children of the current block are computed, but only the
one holding more energy survives.  The kept branch letters form a path such
as ``"LH"``, and the discarded sibling energies are recorded so that the
reconstruction error is known without ever reconstructing: by orthonormality
it equals the sum of everything that was thrown away.

A register does not know where its window lies in a series: the batched
functions take and return windows in order, so register r is row r.  Every
window descends exactly to the requested depth, so reduction splits every
row at each level and synthesis rebuilds all rows as one block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, FamilyMismatchError, LengthError, PolicyError
from .wavelets import (
    FilterPair, analysis_step, energies, energy, make_filter_pair, synthesis_step,
)

# Largest relative gap between two energies that the ledger says are equal.
LEDGER_RTOL = 1e-9


@dataclass(frozen=True)
class ReducedRegister:
    """Single surviving branch of a packet decomposition.

    sibling_energies holds one ``(kept, discarded)`` pair per level, root
    first.  The energy of the reconstruction error equals the sum of the
    discarded entries.  A register that could not come out of a
    decomposition is refused: a path that is empty or holds anything but
    ``L`` and ``H``, a ledger without one pair per path letter, an
    original_length that is not a power of two >= 2, coeffs that are not
    ``original_length >> depth`` values, a non-finite number, or coeffs
    whose energy is not the last ``kept`` of the ledger within LEDGER_RTOL
    of the larger.
    """

    original_length: int
    family: str
    path: str
    coeffs: np.ndarray
    sibling_energies: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.path or not set(self.path) <= {"L", "H"}:
            raise DataError(f"path must be L and H letters, got {self.path!r}")
        if len(self.sibling_energies) != self.depth:
            raise LengthError(
                f"{len(self.sibling_energies)} sibling_energies pairs for path {self.path!r}"
            )
        if not _is_power_of_two(self.original_length) or self.original_length < 2:
            raise LengthError(
                f"original_length {self.original_length} is not a power of two >= 2"
            )
        kept = self.original_length >> self.depth
        if not kept or self.coeffs.shape != (kept,):
            raise LengthError(
                f"coefficients of shape {self.coeffs.shape} do not rebuild "
                f"{self.original_length} samples at depth {self.depth}"
            )
        if not np.isfinite(self.coeffs).all():
            raise DataError("non-finite coefficients")
        if not all(math.isfinite(e) for pair in self.sibling_energies for e in pair):
            raise DataError("non-finite sibling_energies")
        with np.errstate(over="ignore"):  # an energy that overflows is refused
            held = energy(self.coeffs)
        kept = self.sibling_energies[-1][0]
        if not math.isfinite(held) or abs(held - kept) > LEDGER_RTOL * max(held, kept):
            raise DataError(
                f"coefficients hold energy {held!r}, but the ledger keeps {kept!r}"
            )

    @property
    def depth(self) -> int:
        return len(self.path)

    def discarded_energy(self) -> float:
        return sum(d for _, d in self.sibling_energies)


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def decompose(signal, filters: FilterPair, depth: int) -> ReducedRegister:
    """Reduce one window to its strongest packet branch; see decompose_windows."""
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise LengthError(f"expected one window, got shape {x.shape}")
    return decompose_windows(x[None, :], filters, depth)[0]


def decompose_windows(windows, filters: FilterPair, depth: int) -> list[ReducedRegister]:
    """Reduce every row of a ``(windows, n)`` matrix to its strongest branch.

    Each of the depth levels splits the whole block and keeps, per row, the
    child holding more energy; ties keep the approximation branch.  Rows do
    not mix, so each row splits as it would alone, bit for bit.  The window
    length n must be a power of two with room for depth halvings, and depth
    at least 1.
    """
    x = np.asarray(windows, dtype=np.float64)
    if x.ndim != 2:
        raise LengthError(f"expected a (windows, n) matrix, got shape {x.shape}")
    if not _is_power_of_two(x.shape[1]) or x.shape[1] < 2:
        raise LengthError(f"window length must be a power of two >= 2, got {x.shape[1]}")
    if depth < 1:
        raise PolicyError(f"depth must be at least 1, got {depth}")
    if x.shape[1] >> depth < 1:
        raise PolicyError(f"depth {depth} exceeds log2 of the window length {x.shape[1]}")

    paths = [""] * x.shape[0]
    ledgers: list[list[tuple[float, float]]] = [[] for _ in paths]
    block = x
    for _ in range(depth):
        approx, detail = analysis_step(block, filters)
        e_lo, e_hi = energies(approx), energies(detail)
        high = e_hi > e_lo
        kept, discarded = np.where(high, e_hi, e_lo), np.where(high, e_lo, e_hi)
        rows = zip(high.tolist(), kept.tolist(), discarded.tolist())
        for r, (h, k, d) in enumerate(rows):
            paths[r] += "H" if h else "L"
            ledgers[r].append((k, d))
        block = np.where(high[:, None], detail, approx)
    block.setflags(write=False)
    return [
        ReducedRegister(x.shape[1], filters.family, path, c, tuple(ledger))
        for path, c, ledger in zip(paths, block, ledgers)
    ]


def family_length_and_depth(registers) -> tuple[str, int, int]:
    """The family, original_length and depth that a non-empty list of
    registers shares: FamilyMismatchError or LengthError otherwise."""
    families = sorted({reduced.family for reduced in registers})
    if not families:
        raise LengthError("no registers")
    if len(families) > 1:
        raise FamilyMismatchError(
            f"registers were reduced with different families {families}"
        )
    lengths = sorted({reduced.original_length for reduced in registers})
    if len(lengths) > 1:
        raise LengthError(f"registers rebuild different lengths {lengths}")
    depths = sorted({reduced.depth for reduced in registers})
    if len(depths) > 1:
        raise LengthError(f"registers were reduced to different depths {depths}")
    return families[0], lengths[0], depths[0]


def synthesize(reduced: ReducedRegister) -> np.ndarray:
    """Rebuild one full-length window; see synthesize_windows."""
    return synthesize_windows([reduced])[0]


def synthesize_windows(registers) -> np.ndarray:
    """Rebuild full-length windows from their kept branches, in input order.

    Discarded siblings enter as zero blocks, so each window is the orthogonal
    projection of its original window onto the kept branch's subspace.  The
    registers share one family, whose filter bank rebuilds them, one length
    n and one depth (see family_length_and_depth).  All registers are
    rebuilt as one block, level by level, into a ``(windows, n)`` matrix;
    rows do not mix, so a register rebuilds the same bits in any batch.
    """
    family, _, depth = family_length_and_depth(registers)
    filters = make_filter_pair(family)
    current = np.array([reduced.coeffs for reduced in registers], dtype=np.float64)
    for level in range(depth, 0, -1):
        high = np.array([reduced.path[level - 1] == "H" for reduced in registers])[:, None]
        zeros = np.zeros_like(current)
        current = synthesis_step(
            np.where(high, zeros, current), np.where(high, current, zeros), filters
        )
    return current


def compression_ratio(reduced: ReducedRegister) -> float:
    """Fraction of samples dropped: 0.5 at depth 1, 0.75 at depth 2, and so on."""
    return 1.0 - reduced.coeffs.shape[0] / reduced.original_length
