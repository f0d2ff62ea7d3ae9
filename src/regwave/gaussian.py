"""Univariate Gaussian anomaly detector.

The model is fit on traffic believed to be normal: the mean and
population variance of one series.  A sample's score is its Gaussian
density, and anything scoring below a threshold epsilon, chosen as a low
quantile of the training scores, is flagged.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, InsufficientDataError, LengthError

# Keeps near-constant series from producing zero variance; scaled so the
# floor tracks the magnitude of the data.
VARIANCE_FLOOR_SCALE = 1e-12


@dataclass(frozen=True)
class GaussianModel:
    mu: float
    sigma2: float
    epsilon: float | None = None
    quantile: float | None = None


@dataclass(frozen=True)
class AnomalyReport:
    flags: np.ndarray
    probabilities: np.ndarray
    epsilon: float

    def flagged_indices(self) -> np.ndarray:
        return np.flatnonzero(self.flags)


def fit_rows(samples) -> tuple[np.ndarray, np.ndarray]:
    """Per-row means and population variances of a ``(rows, m)`` stack.

    Each row is an independent training set of m samples.  Variances use
    the 1/m denominator and are floored at
    ``VARIANCE_FLOOR_SCALE * (1 + mu**2)`` so constant rows stay usable.
    Returns ``(mu, sigma2)``, each of shape ``(rows,)``.

    Raises:
        InsufficientDataError: fewer than 2 samples per row.
        DataError: non-finite values.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.shape[1] < 2:
        raise InsufficientDataError(f"need at least 2 samples to fit, got {x.shape[1]}")
    if not np.isfinite(x).all():
        raise DataError("training samples contain non-finite values")
    mu = x.mean(axis=1)
    sigma2 = np.mean((x - mu[:, None]) ** 2, axis=1)
    return mu, np.maximum(sigma2, VARIANCE_FLOOR_SCALE * (1.0 + mu**2))


def log_probability_rows(mu, sigma2, samples) -> np.ndarray:
    """Log density of every sample of a ``(rows, m)`` stack.

    Row r is scored by ``mu[r]`` and ``sigma2[r]``; a scalar mu and sigma2
    score every row.  Returns ``(rows, m)``.

    Raises:
        DataError: non-finite samples, which would score NaN and never flag.
    """
    x = np.asarray(samples, dtype=np.float64)
    if not np.isfinite(x).all():
        raise DataError("samples to score contain non-finite values")
    mu, sigma2 = np.reshape(mu, (-1, 1)), np.reshape(sigma2, (-1, 1))
    return -0.5 * ((x - mu) ** 2 / sigma2 + np.log(2.0 * math.pi * sigma2))


def threshold_rows(probabilities, quantile: float) -> np.ndarray:
    """Per-row empirical lower quantile of a ``(rows, m)`` probability matrix.

    With m sorted values the threshold is ``sorted[floor(quantile * (m-1))]``,
    so it always coincides with an observed probability.
    """
    p = np.asarray(probabilities, dtype=np.float64)
    if p.shape[1] == 0:
        raise InsufficientDataError("cannot select a threshold from zero probabilities")
    if not 0.0 <= quantile <= 1.0:
        raise DataError(f"quantile must lie in [0, 1], got {quantile}")
    return np.quantile(p, quantile, axis=1, method="lower")


def calibrate_rows(mu, sigma2, samples, quantile: float) -> np.ndarray:
    """Per-row epsilon: the threshold of each row's own training scores."""
    return threshold_rows(np.exp(log_probability_rows(mu, sigma2, samples)), quantile)


def detect_rows(mu, sigma2, epsilon, samples) -> tuple[np.ndarray, np.ndarray]:
    """Score a ``(rows, m)`` stack and flag, per row, what falls below
    ``epsilon[r]``, or below a scalar epsilon in every row.  Returns
    ``(flags, probabilities)``, each ``(rows, m)``.

    Comparison happens in probability space; scores too small to represent
    underflow to 0.0 and are still flagged whenever epsilon is positive.
    """
    probs = np.exp(log_probability_rows(mu, sigma2, samples))
    return probs < np.reshape(epsilon, (-1, 1)), probs


def _one_row(samples) -> np.ndarray:
    """A 1-D series of samples as the one row of a ``(1, m)`` stack."""
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1:
        raise LengthError(f"expected a 1-D series of samples, got shape {x.shape}")
    return x[None]


def fit(samples) -> GaussianModel:
    """Estimate the mean and population variance of a series; one row of
    fit_rows.

    Raises:
        LengthError: samples that are not a 1-D series.
        InsufficientDataError: fewer than 2 samples.
        DataError: non-finite values.
    """
    mu, sigma2 = fit_rows(_one_row(samples))
    return GaussianModel(mu=float(mu[0]), sigma2=float(sigma2[0]))


def select_threshold(train_probabilities, quantile: float = 0.01) -> float:
    """Empirical lower quantile of the training probabilities; see threshold_rows."""
    p = np.asarray(train_probabilities, dtype=np.float64).ravel()
    return float(threshold_rows(p[None], quantile)[0])


def calibrate(model: GaussianModel, train_samples, quantile: float = 0.01) -> GaussianModel:
    """Return a copy of the model with epsilon picked from training scores."""
    x = _one_row(train_samples)
    eps = float(calibrate_rows(model.mu, model.sigma2, x, quantile)[0])
    return dataclasses.replace(model, epsilon=eps, quantile=quantile)


def detect(model: GaussianModel, samples) -> AnomalyReport:
    """Flag every sample scoring strictly below the model's epsilon; one row
    of detect_rows.

    Raises:
        DataError: non-finite samples.
    """
    if model.epsilon is None:
        raise ValueError("model has no threshold; run calibrate() first")
    x = _one_row(samples)
    flags, probs = detect_rows(model.mu, model.sigma2, model.epsilon, x)
    flags, probs = flags[0], probs[0]
    probs.setflags(write=False)
    flags.setflags(write=False)
    return AnomalyReport(flags=flags, probabilities=probs, epsilon=model.epsilon)
