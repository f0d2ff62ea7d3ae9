"""Window-by-window reduction and original-versus-synthesized comparison.

A counter-delta series is cut into consecutive non-overlapping windows, each
window reduced to its strongest packet branch, and detection run on both the
original and the rebuilt window with one shared model and threshold so that
any difference in flags is attributable to the reduction alone.  Window r is
samples ``[r*n, (r+1)*n)`` of the series, register r of a list and row r of
every batch; no window carries its own position.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gaussian
from .errors import AlignmentError, InsufficientDataError
from .metrics import ComparisonReport, build_report
from .reducer import (
    ReducedRegister,
    ReductionPolicy,
    compression_ratio,
    decompose_windows,
    synthesize_windows,
)
from .wavelets import FilterPair, energies

# Largest relative gap between a window's energy and its register's ledger.
LEDGER_RTOL = 1e-9


def reduce_series(
    values,
    filters: FilterPair,
    policy: ReductionPolicy,
    window: int,
) -> tuple[list[ReducedRegister], int]:
    """Reduce every full window of a series; returns one register per window
    and the number of trailing samples dropped."""
    if window < 2:
        raise InsufficientDataError(f"window must be at least 2, got {window}")
    x = np.asarray(values, dtype=np.float64)
    n_windows, dropped = divmod(x.shape[0], window)
    if not n_windows:
        raise InsufficientDataError(
            f"series of {x.shape[0]} samples holds no {window}-sample window"
        )
    matrix = x[: n_windows * window].reshape(n_windows, window)
    return decompose_windows(matrix, filters, policy), dropped


@dataclass(frozen=True)
class Comparison:
    """Everything compare produces for k windows of n samples, plot series
    included: entry r of reports and epsilon and row r of each read-only
    ``(k, n)`` matrix belong to window r."""

    reports: list[ComparisonReport]
    epsilon: np.ndarray
    original: np.ndarray
    synthesized: np.ndarray
    prob_original: np.ndarray
    prob_synthesized: np.ndarray


def fit_row_models(train, quantile: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fit and calibrate one single-feature model per row of a ``(rows, m)``
    matrix; returns ``(mu, sigma2, epsilon)`` for :func:`judge_windows`."""
    x = np.ascontiguousarray(train, dtype=np.float64)[:, :, None]
    mu, sigma2 = gaussian.fit_rows(x)
    return mu, sigma2, gaussian.calibrate_rows(mu, sigma2, x, quantile)


def judge_windows(originals, synthesized, compression, mu, sigma2, epsilon):
    """Score both versions of every window with its row's model and report.

    originals and synthesized are C-contiguous ``(rows, n)`` matrices; row r
    is scored by ``mu[r]``, ``sigma2[r]`` and ``epsilon[r]``, or a ``(1, 1)``
    mu and sigma2 score every row.  Returns the reports plus the
    probabilities of the originals and of the synthesized windows, each
    ``(rows, n)``.
    """
    flags_o, prob_o = gaussian.detect_rows(mu, sigma2, epsilon, originals[:, :, None])
    flags_s, prob_s = gaussian.detect_rows(mu, sigma2, epsilon, synthesized[:, :, None])
    reports = build_report(compression, originals, synthesized, flags_o, flags_s)
    return reports, prob_o, prob_s


def compare_windows(
    values,
    registers: list[ReducedRegister],
    *,
    model: gaussian.GaussianModel | None = None,
    quantile: float = 0.01,
) -> Comparison:
    """Judge register r against window r of the series, for every register.

    A model, such as one fitted and calibrated on a training prefix of the
    series, scores every window with its epsilon; with model None, each
    window is scored by a model fitted on its own original samples at the
    given quantile.  The same model and epsilon always score both versions
    of a window.  The windows, all of one length, are fitted, scored and
    reported as one batch.

    The filter bank is orthonormal, so a window's energy equals its
    register's level-1 ledger pair, ``kept + discarded``.  A window whose
    energy differs from that sum by more than LEDGER_RTOL of the larger was
    not reduced into its register, and is refused.

    Raises:
        InsufficientDataError: a model without epsilon.
        LengthError, FamilyMismatchError: registers of mixed lengths or families.
        AlignmentError: when the windows need samples the series lacks, or
            a window's energy does not match its register's ledger.
    """
    x = np.asarray(values, dtype=np.float64)
    if model is not None and model.epsilon is None:
        raise InsufficientDataError("model has no threshold; run calibrate() first")
    if not registers:
        empty = np.empty((0, 0))
        empty.setflags(write=False)
        return Comparison([], np.empty(0), empty, empty, empty, empty)
    synthesized = synthesize_windows(registers)
    k, n = synthesized.shape
    if k * n > x.shape[0]:
        r = x.shape[0] // n
        raise AlignmentError(
            f"window {r} spans [{r * n}, {(r + 1) * n}) but the series has "
            f"{x.shape[0]} samples"
        )
    originals = x[: k * n].reshape(k, n).copy()
    for r, (energy, reduced) in enumerate(zip(energies(originals).tolist(), registers)):
        ledger = sum(reduced.sibling_energies[0])
        if abs(energy - ledger) > LEDGER_RTOL * max(energy, ledger):
            raise AlignmentError(
                f"window {r} holds energy {energy!r}, but register {r}'s ledger holds "
                f"{ledger!r}: it was not reduced from this series"
            )
    if model is None:
        mu, sigma2, epsilon = fit_row_models(originals, quantile)
    else:
        mu, sigma2 = model.mu[None], model.sigma2[None]
        epsilon = np.full(k, model.epsilon)
    reports, prob_o, prob_s = judge_windows(
        originals, synthesized, [compression_ratio(r) for r in registers], mu, sigma2,
        epsilon,
    )
    for matrix in (originals, synthesized, prob_o, prob_s):
        matrix.setflags(write=False)
    return Comparison(reports, epsilon, originals, synthesized, prob_o, prob_s)
