"""Window-by-window reduction and original-versus-synthesized comparison.

A counter-delta series is cut into consecutive non-overlapping windows, each
window reduced to its strongest packet branch, and detection run on both the
original and the rebuilt window with one shared model and threshold so that
any difference in flags is attributable to the reduction alone.  Window r is
samples ``[r*n, (r+1)*n)`` of the series and row r of the series' one
ReducedRegister and of every batch; no window carries its own position.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gaussian
from .errors import AlignmentError, InsufficientDataError
from .metrics import ComparisonReport, build_report
from .reducer import (
    LEDGER_RTOL,
    ReducedRegister,
    compression_ratio,
    decompose_windows,
    synthesize_windows,
)
from .wavelets import FilterPair, energies


def reduce_series(
    values,
    filters: FilterPair,
    depth: int,
    window: int,
) -> tuple[ReducedRegister, int]:
    """Reduce every full window of a series; returns the register that
    holds them, window r in row r, and the number of trailing samples
    dropped."""
    if window < 2:
        raise InsufficientDataError(f"window must be at least 2, got {window}")
    x = np.asarray(values, dtype=np.float64)
    n_windows, dropped = divmod(x.shape[0], window)
    if not n_windows:
        raise InsufficientDataError(
            f"series of {x.shape[0]} samples holds no {window}-sample window"
        )
    matrix = x[: n_windows * window].reshape(n_windows, window)
    return decompose_windows(matrix, filters, depth), dropped


@dataclass(frozen=True)
class Comparison:
    """Everything compare produces for k windows of n samples, plot series
    included: entry r of reports and row r of each read-only ``(k, n)``
    matrix belong to window r, and the model's one epsilon scored them all."""

    reports: list[ComparisonReport]
    epsilon: float
    original: np.ndarray
    synthesized: np.ndarray
    prob_original: np.ndarray
    prob_synthesized: np.ndarray


def fit_row_models(train, quantile: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fit and calibrate one model per row of a ``(rows, m)`` matrix;
    returns ``(mu, sigma2, epsilon)`` for :func:`judge_windows`."""
    x = np.ascontiguousarray(train, dtype=np.float64)
    mu, sigma2 = gaussian.fit_rows(x)
    return mu, sigma2, gaussian.calibrate_rows(mu, sigma2, x, quantile)


def judge_windows(originals, synthesized, compression, mu, sigma2, epsilon):
    """Score both versions of every window with its row's model and report.

    originals and synthesized are C-contiguous ``(rows, n)`` matrices; row r
    is scored by ``mu[r]``, ``sigma2[r]`` and ``epsilon[r]``, or a scalar mu,
    sigma2 and epsilon score every row.  Returns the reports plus the
    probabilities of the originals and of the synthesized windows, each
    ``(rows, n)``.
    """
    flags_o, prob_o = gaussian.detect_rows(mu, sigma2, epsilon, originals)
    flags_s, prob_s = gaussian.detect_rows(mu, sigma2, epsilon, synthesized)
    reports = build_report(compression, originals, synthesized, flags_o, flags_s)
    return reports, prob_o, prob_s


def compare_windows(
    values, reduced: ReducedRegister, model: gaussian.GaussianModel
) -> Comparison:
    """Judge row r of a register against window r of the series, for every row.

    The calibrated model, such as one fitted on a training prefix of the
    series or on all of it, scores both versions of every window with its
    epsilon.  The windows, all of one length, are scored and reported as
    one batch.

    The filter bank is orthonormal, so a window's energy equals its
    level-1 ledger pair, ``kept + discarded``, and the energy of the window
    minus its rebuild equals its discarded energy.  A window whose energy
    differs from that sum by more than LEDGER_RTOL of the larger was not
    reduced into its row; a rebuild whose error differs from the discarded
    energy by more than LEDGER_RTOL of the window's energy contradicts its
    ledger.  Both are refused, naming the first such window.

    Raises:
        InsufficientDataError: a model without epsilon.
        AlignmentError: when the windows need samples the series lacks, or
            a window or its rebuild does not match its row's ledger.
    """
    x = np.asarray(values, dtype=np.float64)
    if model.epsilon is None:
        raise InsufficientDataError("model has no threshold; run calibrate() first")
    synthesized = synthesize_windows(reduced)
    k, n = synthesized.shape
    if k * n > x.shape[0]:
        r = x.shape[0] // n
        raise AlignmentError(
            f"window {r} spans [{r * n}, {(r + 1) * n}) but the series has "
            f"{x.shape[0]} samples"
        )
    originals = x[: k * n].reshape(k, n).copy()
    energy, error = energies(originals), energies(originals - synthesized)
    ledger, discarded = reduced.sibling_energies[:, 0].sum(axis=1), reduced.discarded_energy()
    foreign = np.abs(energy - ledger) > LEDGER_RTOL * np.maximum(energy, ledger)
    bad = foreign | (np.abs(error - discarded) > LEDGER_RTOL * energy)
    if bad.any():
        r = bad.argmax()
        if foreign[r]:
            raise AlignmentError(
                f"window {r} holds energy {float(energy[r])!r}, but register {r}'s "
                f"ledger holds {float(ledger[r])!r}: it was not reduced from this series"
            )
        raise AlignmentError(
            f"window {r} differs from its rebuild from register {r} by energy "
            f"{float(error[r])!r}, but the register's ledger discards "
            f"{float(discarded[r])!r}"
        )
    reports, prob_o, prob_s = judge_windows(
        originals, synthesized, [compression_ratio(reduced)] * k,
        model.mu, model.sigma2, model.epsilon,
    )
    for matrix in (originals, synthesized, prob_o, prob_s):
        matrix.setflags(write=False)
    return Comparison(reports, model.epsilon, originals, synthesized, prob_o, prob_s)
