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
    score both versions of a window.

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
    out = []
    for w, synthesized in zip(windows, rebuilt):
        original = x[w.start : w.start + w.register.original_length]
        window_model = model or fit_series_model(original, quantile)
        rep_o = gaussian.detect(window_model, original)
        rep_s = gaussian.detect(window_model, synthesized)
        report = build_report(
            compression_ratio(w.register),
            original,
            synthesized,
            np.flatnonzero(rep_o.flags),
            np.flatnonzero(rep_s.flags),
        )
        out.append(
            WindowComparison(
                index=w.index,
                start=w.start,
                report=report,
                epsilon=window_model.epsilon,
                original=original,
                synthesized=synthesized,
                prob_original=rep_o.probabilities,
                prob_synthesized=rep_s.probabilities,
            )
        )
    return out
