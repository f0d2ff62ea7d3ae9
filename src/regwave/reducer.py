"""Energy-guided wavelet packet reduction of counter windows.

At each level both children of the current block are computed, but only the
one holding more energy survives.  The kept branch letters form a path such
as ``"LH"``, and the discarded sibling energies are recorded so that the
reconstruction error is known without ever reconstructing: by orthonormality
it equals the sum of everything that was thrown away.

A register does not know where its window lies in a series: the batched
functions take and return windows in order, so register r is row r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, FamilyMismatchError, LengthError, PolicyError
from .wavelets import FilterPair, analysis_step, energies, synthesis_step


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

    Each level splits all rows still descending at once and keeps, per row,
    the child holding more energy; ties keep the approximation branch.  A row
    whose winner falls below the policy's energy floor stops where it is.
    The window length n must be a power of two with room for max_depth
    halvings.
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

    rows = np.arange(x.shape[0])  # rows still descending
    block, block_energy = x, None
    levels = []  # per level: (rows, took_high, kept, discarded)
    finished = []  # (rows, blocks) of rows that stopped early
    for level in range(1, policy.max_depth + 1):
        approx, detail = analysis_step(block, filters)
        e_lo, e_hi = energies(approx), energies(detail)
        high = e_hi > e_lo
        kept = np.where(high, e_hi, e_lo)
        discarded = np.where(high, e_lo, e_hi)
        winner = np.where(high[:, None], detail, approx)
        # The energy floor only guards descents past the first level, so the
        # result always carries at least one branch letter.
        if level > 1:
            stop = kept < policy.min_energy_ratio * block_energy
            if stop.any():
                finished.append((rows[stop], block[stop]))
                go = ~stop
                rows, high, kept, discarded, winner = (
                    rows[go], high[go], kept[go], discarded[go], winner[go]
                )
                if not rows.size:
                    # Every row stopped: the next level's block may be
                    # shorter than the filter, so it is never split.
                    break
        levels.append((rows, high, kept, discarded))
        block, block_energy = winner, kept
    finished.append((rows, block))

    paths = [""] * x.shape[0]
    ledgers: list[list[tuple[float, float]]] = [[] for _ in paths]
    for level_rows, high, kept, discarded in levels:
        for r, h, k, d in zip(
            level_rows.tolist(), high.tolist(), kept.tolist(), discarded.tolist()
        ):
            paths[r] += "H" if h else "L"
            ledgers[r].append((k, d))
    coeffs = [None] * x.shape[0]
    for done_rows, blocks in finished:
        blocks.setflags(write=False)
        for r, c in zip(done_rows.tolist(), blocks):
            coeffs[r] = c
    return [
        ReducedRegister(
            original_length=x.shape[1],
            family=filters.family,
            path=path,
            coeffs=c,
            sibling_energies=tuple(ledger),
        )
        for path, c, ledger in zip(paths, coeffs, ledgers)
    ]


def synthesize(reduced: ReducedRegister, filters: FilterPair) -> np.ndarray:
    """Rebuild one full-length window; see synthesize_windows."""
    return synthesize_windows([reduced], filters)[0]


def synthesize_windows(registers, filters: FilterPair) -> np.ndarray:
    """Rebuild full-length windows from their kept branches, in input order.

    Discarded siblings enter as zero blocks, so each window is the orthogonal
    projection of its original window onto the kept branch's subspace.  All
    registers must rebuild one length n; they are rebuilt as one batch
    whatever their depths and paths, as the rows of a ``(windows, n)``
    matrix.  No registers give a ``(0, 0)`` matrix.
    """
    for reduced in registers:
        if filters.family != reduced.family:
            raise FamilyMismatchError(
                f"register was reduced with {reduced.family!r}, not {filters.family!r}"
            )
    lengths = sorted({reduced.original_length for reduced in registers})
    if len(lengths) > 1:
        raise LengthError(f"registers rebuild different lengths {lengths}")
    if not registers:
        return np.empty((0, 0))
    # A register joins the batch at the level its kept block lives on.
    # Deepest registers first, so the registers joining at each level append
    # their rows to the running block.
    order = sorted(range(len(registers)), key=lambda r: registers[r].depth, reverse=True)
    ranked = [registers[r] for r in order]
    current = None
    joined = 0
    for level in range(ranked[0].depth, -1, -1):
        start = joined
        while joined < len(ranked) and ranked[joined].depth == level:
            joined += 1
        if joined > start:
            fresh = np.array([r.coeffs for r in ranked[start:joined]], dtype=np.float64)
            current = fresh if current is None else np.concatenate([current, fresh])
        if level:
            high = np.array([r.path[level - 1] == "H" for r in ranked[:joined]])[:, None]
            zeros = np.zeros_like(current)
            current = synthesis_step(
                np.where(high, zeros, current), np.where(high, current, zeros), filters
            )
    out = np.empty_like(current)
    out[order] = current
    return out


def compression_ratio(reduced: ReducedRegister) -> float:
    """Fraction of samples dropped: 0.5 at depth 1, 0.75 at depth 2, and so on."""
    return 1.0 - reduced.coeffs.shape[0] / reduced.original_length
