"""Energy-guided wavelet packet reduction of counter windows.

At each level both children of the current block are computed, but only the
one holding more energy survives.  The kept branch letters form a path such
as ``"LH"``, and the discarded sibling energies are recorded so that the
reconstruction error is known without ever reconstructing: by orthonormality
it equals the sum of everything that was thrown away.

A register does not know where its window lies in a series: the batched
functions take and return windows in order, so register r is row r.
Reduction splits every row at each level under one mask of the rows still
descending; synthesis rebuilds the registers of each depth as one group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, FamilyMismatchError, LengthError, PolicyError
from .wavelets import FilterPair, analysis_step, energies, make_filter_pair, synthesis_step


@dataclass(frozen=True)
class ReductionPolicy:
    """How far to descend and when to stop early.

    max_depth caps the number of analysis steps.  min_energy_ratio stops the
    descent once the winning child would hold less than that fraction of its
    parent's energy; the first step is always taken so a reduction is never
    empty.
    """

    max_depth: int = 1
    min_energy_ratio: float = 0.0

    def __post_init__(self):
        if self.max_depth < 1:
            raise PolicyError(f"max_depth must be at least 1, got {self.max_depth}")
        if not 0.0 <= self.min_energy_ratio <= 1.0:
            raise PolicyError(
                f"min_energy_ratio must lie in [0, 1], got {self.min_energy_ratio}"
            )


@dataclass(frozen=True)
class ReducedRegister:
    """Single surviving branch of a packet decomposition.

    sibling_energies holds one ``(kept, discarded)`` pair per level, root
    first.  The energy of the reconstruction error equals the sum of the
    discarded entries.  A register that could not come out of a
    decomposition is refused: a path that is empty or holds anything but
    ``L`` and ``H``, a ledger without one pair per path letter, an
    original_length that is not a power of two >= 2, coeffs that are not
    ``original_length >> depth`` values, or a non-finite number.
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

    @property
    def depth(self) -> int:
        return len(self.path)

    def discarded_energy(self) -> float:
        return sum(d for _, d in self.sibling_energies)


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def decompose(signal, filters: FilterPair, policy: ReductionPolicy) -> ReducedRegister:
    """Reduce one window to its strongest packet branch; see decompose_windows."""
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise LengthError(f"expected one window, got shape {x.shape}")
    return decompose_windows(x[None, :], filters, policy)[0]


def decompose_windows(
    windows, filters: FilterPair, policy: ReductionPolicy
) -> list[ReducedRegister]:
    """Reduce every row of a ``(windows, n)`` matrix to its strongest branch.

    Each level splits the whole block and keeps, per row, the child holding
    more energy; ties keep the approximation branch.  Rows do not mix, so
    each row splits as it would alone, bit for bit.  Only rows in the active
    mask gain a letter and a ledger pair; a row whose winner falls below the
    policy's energy floor leaves the mask and keeps its parent block as its
    coefficients.  Once the floor has stopped every row the descent ends, so
    a block shorter than the filter is never split.  The window length n
    must be a power of two with room for max_depth halvings.
    """
    x = np.asarray(windows, dtype=np.float64)
    if x.ndim != 2:
        raise LengthError(f"expected a (windows, n) matrix, got shape {x.shape}")
    if not _is_power_of_two(x.shape[1]) or x.shape[1] < 2:
        raise LengthError(f"window length must be a power of two >= 2, got {x.shape[1]}")
    if x.shape[1] >> policy.max_depth < 1:
        raise PolicyError(
            f"max_depth {policy.max_depth} exceeds log2 of the window length {x.shape[1]}"
        )

    paths = [""] * x.shape[0]
    ledgers: list[list[tuple[float, float]]] = [[] for _ in paths]
    coeffs = [None] * x.shape[0]
    active = np.ones(x.shape[0], dtype=bool)
    block, block_energy = x, None
    for level in range(1, policy.max_depth + 1):
        approx, detail = analysis_step(block, filters)
        e_lo, e_hi = energies(approx), energies(detail)
        high = e_hi > e_lo
        kept = np.where(high, e_hi, e_lo)
        # The energy floor only guards descents past the first level, so the
        # result always carries at least one branch letter.
        if level > 1:
            stop = active & (kept < policy.min_energy_ratio * block_energy)
            if stop.any():
                block.setflags(write=False)
                for r in np.flatnonzero(stop).tolist():
                    coeffs[r] = block[r]
                active &= ~stop
                if not active.any():
                    break
        discarded = np.where(high, e_lo, e_hi)
        rows = zip(active.tolist(), high.tolist(), kept.tolist(), discarded.tolist())
        for r, (on, h, k, d) in enumerate(rows):
            if on:
                paths[r] += "H" if h else "L"
                ledgers[r].append((k, d))
        block, block_energy = np.where(high[:, None], detail, approx), kept
    block.setflags(write=False)
    for r in np.flatnonzero(active).tolist():
        coeffs[r] = block[r]
    return [
        ReducedRegister(x.shape[1], filters.family, path, c, tuple(ledger))
        for path, c, ledger in zip(paths, coeffs, ledgers)
    ]


def family_and_length(registers) -> tuple[str, int]:
    """The family and original_length that a non-empty list of registers
    shares: FamilyMismatchError or LengthError otherwise."""
    if not registers:
        raise LengthError("no registers")
    families = sorted({reduced.family for reduced in registers})
    if len(families) > 1:
        raise FamilyMismatchError(
            f"registers were reduced with different families {families}"
        )
    lengths = sorted({reduced.original_length for reduced in registers})
    if len(lengths) > 1:
        raise LengthError(f"registers rebuild different lengths {lengths}")
    return families[0], lengths[0]


def synthesize(reduced: ReducedRegister) -> np.ndarray:
    """Rebuild one full-length window; see synthesize_windows."""
    return synthesize_windows([reduced])[0]


def synthesize_windows(registers) -> np.ndarray:
    """Rebuild full-length windows from their kept branches, in input order.

    Discarded siblings enter as zero blocks, so each window is the orthogonal
    projection of its original window onto the kept branch's subspace.  The
    registers share one family, whose filter bank rebuilds them, and one
    length n.  The registers of each depth are rebuilt as one group, level by
    level, and written back to their rows of a ``(windows, n)`` matrix; rows
    do not mix, so a register rebuilds the same bits in any group.  No
    registers give a ``(0, 0)`` matrix.
    """
    if not registers:
        return np.empty((0, 0))
    family, n = family_and_length(registers)
    filters = make_filter_pair(family)
    out = np.empty((len(registers), n))
    for depth in {reduced.depth for reduced in registers}:
        rows = [r for r, reduced in enumerate(registers) if reduced.depth == depth]
        group = [registers[r] for r in rows]
        current = np.array([reduced.coeffs for reduced in group], dtype=np.float64)
        for level in range(depth, 0, -1):
            high = np.array([reduced.path[level - 1] == "H" for reduced in group])[:, None]
            zeros = np.zeros_like(current)
            current = synthesis_step(
                np.where(high, zeros, current), np.where(high, current, zeros), filters
            )
        out[rows] = current
    return out


def compression_ratio(reduced: ReducedRegister) -> float:
    """Fraction of samples dropped: 0.5 at depth 1, 0.75 at depth 2, and so on."""
    return 1.0 - reduced.coeffs.shape[0] / reduced.original_length
