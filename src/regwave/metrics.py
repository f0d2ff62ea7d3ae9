"""Distortion and agreement metrics for judging a reduction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LengthError, UndefinedMetricError
from .wavelets import energies


def _pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(a, dtype=np.float64).ravel()
    y = np.asarray(b, dtype=np.float64).ravel()
    return _rows(x[None], y[None])


def _rows(a, b) -> tuple[np.ndarray, np.ndarray]:
    x = np.ascontiguousarray(a, dtype=np.float64)
    y = np.ascontiguousarray(b, dtype=np.float64)
    if x.shape != y.shape:
        raise LengthError(f"length mismatch: {x.shape[-1]} vs {y.shape[-1]}")
    if x.shape[-1] == 0:
        raise LengthError("metrics need at least one sample")
    return x, y


def _rmse_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.sqrt(np.mean((x - y) ** 2, axis=1))


def _prd_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # energies() takes one dot product per row, which rounds as ``x @ x`` on
    # that row alone; a sum over the axis would round differently.
    ref = energies(x)
    if not ref.all():
        raise UndefinedMetricError("prd is undefined for an all-zero reference")
    return 100.0 * np.sqrt(energies(x - y) / ref)


def rmse(a, b) -> float:
    return float(_rmse_rows(*_pair(a, b))[0])


def prd(a, b) -> float:
    """Percent root-mean-square difference relative to the first argument."""
    return float(_prd_rows(*_pair(a, b))[0])


def jaccard(a, b) -> float:
    """Set overlap |A & B| / |A | B|; two empty sets count as full agreement."""
    sa, sb = set(a), set(b)
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


@dataclass(frozen=True)
class ComparisonReport:
    """How well detection on the synthesized register tracks the original.

    flags_original plays the role of ground truth: preserved_recall is the
    fraction of originally flagged indices still flagged after reduction,
    preserved_precision the fraction of synthesized flags that were original
    ones.  Empty denominators count as 1.0.
    """

    compression_ratio: float
    rmse: float
    prd: float
    flags_original: tuple[int, ...]
    flags_synthesized: tuple[int, ...]
    jaccard: float
    preserved_precision: float
    preserved_recall: float


def build_report(
    compression, original, synthesized, flags_original, flags_synthesized
) -> list[ComparisonReport]:
    """One report per row of ``(rows, n)`` series and boolean flag matrices.

    compression holds one ratio per row.  Overlaps are counted from the flag
    masks; a row's flag tuples list its flagged sample indices in order.
    """
    x, y = _rows(original, synthesized)
    fo = np.asarray(flags_original, dtype=bool)
    fs = np.asarray(flags_synthesized, dtype=bool)
    per_row = zip(
        compression,
        _rmse_rows(x, y).tolist(),
        _prd_rows(x, y).tolist(),
        np.count_nonzero(fo & fs, axis=1).tolist(),
        np.count_nonzero(fo, axis=1).tolist(),
        np.count_nonzero(fs, axis=1).tolist(),
        fo,
        fs,
    )
    return [
        ComparisonReport(
            compression_ratio=ratio,
            rmse=err,
            prd=pct,
            flags_original=tuple(np.flatnonzero(row_o).tolist()),
            flags_synthesized=tuple(np.flatnonzero(row_s).tolist()),
            jaccard=hits / (a + b - hits) if a or b else 1.0,
            preserved_precision=hits / b if b else 1.0,
            preserved_recall=hits / a if a else 1.0,
        )
        for ratio, err, pct, hits, a, b, row_o, row_s in per_row
    ]
