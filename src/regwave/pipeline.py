"""Window-by-window reduction and original-versus-synthesized comparison.

A counter-delta series is cut into consecutive non-overlapping windows, each
window reduced to its strongest packet branch, and detection run on both the
original and the rebuilt window with one shared model and threshold so that
any difference in flags is attributable to the reduction alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gaussian
from .errors import AlignmentError, InsufficientDataError
from .formats import ReducedWindow
from .metrics import ComparisonReport, build_report
from .reducer import (
    ReductionPolicy,
    compression_ratio,
    decompose_windows,
    synthesize_windows,
)
from .wavelets import FilterPair


def window_slices(n_samples: int, window: int) -> tuple[list[tuple[int, int]], int]:
    """Consecutive [start, stop) spans of full windows, plus the dropped tail."""
    if window < 2:
        raise InsufficientDataError(f"window must be at least 2, got {window}")
    n_windows = n_samples // window
    spans = [(i * window, (i + 1) * window) for i in range(n_windows)]
    return spans, n_samples - n_windows * window


def reduce_series(
    values,
    filters: FilterPair,
    policy: ReductionPolicy,
    window: int,
) -> tuple[list[ReducedWindow], int]:
    """Reduce every full window of a series; returns windows and dropped count."""
    x = np.asarray(values, dtype=np.float64)
    spans, dropped = window_slices(x.shape[0], window)
    if not spans:
        raise InsufficientDataError(
            f"series of {x.shape[0]} samples holds no {window}-sample window"
        )
    matrix = x[: len(spans) * window].reshape(len(spans), window)
    registers = decompose_windows(matrix, filters, policy)
    out = [
        ReducedWindow(index=index, start=start, register=register)
        for index, ((start, _), register) in enumerate(zip(spans, registers))
    ]
    return out, dropped


@dataclass(frozen=True)
class WindowComparison:
    """Everything compare produces for one window, plot series included."""

    index: int
    start: int
    report: ComparisonReport
    epsilon: float
    original: np.ndarray
    synthesized: np.ndarray
    prob_original: np.ndarray
    prob_synthesized: np.ndarray


def fit_series_model(
    train_values, quantile: float
) -> gaussian.GaussianModel:
    """Fit and calibrate a single-feature model on a training series."""
    train = np.asarray(train_values, dtype=np.float64)
    model = gaussian.fit(train)
    return gaussian.calibrate(model, train, quantile)


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
    windows: list[ReducedWindow],
    filters: FilterPair,
    *,
    model: gaussian.GaussianModel | None = None,
    train: int = 0,
    quantile: float = 0.01,
) -> list[WindowComparison]:
    """Judge each reduced window against the matching span of the original.

    The detector model comes from, in order of preference: the model
    argument, a fit on the first ``train`` samples of the series, or a fit on
    each window's own original samples.  The same model and epsilon always
    score both versions of a window.  Windows of one original length are
    fitted, scored and reported as one batch; the arrays of each result are
    read-only rows of that batch.

    Raises:
        AlignmentError: when a window refers to samples the series lacks or
            its length disagrees with its register.
    """
    x = np.asarray(values, dtype=np.float64)
    if model is not None and model.epsilon is None:
        raise InsufficientDataError("model file carries no epsilon; refit or calibrate")
    if model is None and train:
        if train < 2:
            raise InsufficientDataError(f"training prefix needs >= 2 samples, got {train}")
        if train > x.shape[0]:
            raise InsufficientDataError(
                f"training prefix {train} exceeds the series length {x.shape[0]}"
            )
        model = fit_series_model(x[:train], quantile)

    for w in windows:
        stop = w.start + w.register.original_length
        if w.start < 0 or stop > x.shape[0]:
            raise AlignmentError(
                f"window {w.index} spans [{w.start}, {stop}) but the series has "
                f"{x.shape[0]} samples"
            )
    rebuilt = synthesize_windows([w.register for w in windows], filters)
    by_length: dict[int, list[int]] = {}
    for r, w in enumerate(windows):
        by_length.setdefault(w.register.original_length, []).append(r)
    out: list[WindowComparison | None] = [None] * len(windows)
    for length, rows in by_length.items():
        starts = np.array([windows[r].start for r in rows])
        originals = x[starts[:, None] + np.arange(length)]
        synthesized = np.array([rebuilt[r] for r in rows])
        if model is None:
            mu, sigma2, epsilon = fit_row_models(originals, quantile)
        else:
            mu, sigma2 = model.mu[None], model.sigma2[None]
            epsilon = np.full(len(rows), model.epsilon)
        compression = [compression_ratio(windows[r].register) for r in rows]
        reports, prob_o, prob_s = judge_windows(
            originals, synthesized, compression, mu, sigma2, epsilon
        )
        for matrix in (originals, synthesized, prob_o, prob_s):
            matrix.setflags(write=False)
        for i, (r, eps) in enumerate(zip(rows, epsilon.tolist())):
            out[r] = WindowComparison(
                index=windows[r].index,
                start=windows[r].start,
                report=reports[i],
                epsilon=eps,
                original=originals[i],
                synthesized=synthesized[i],
                prob_original=prob_o[i],
                prob_synthesized=prob_s[i],
            )
    return out
