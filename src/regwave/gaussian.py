"""Product-of-univariate-Gaussians anomaly detector.

The model is fit on traffic believed to be normal: per-feature mean and
population variance.  A sample's score is the product of the univariate
densities, and anything scoring below a threshold epsilon, chosen as a low
quantile of the training scores, is flagged.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, InsufficientDataError, LengthError

# Keeps near-constant features from producing zero variance; scaled so the
# floor tracks the magnitude of the data.
VARIANCE_FLOOR_SCALE = 1e-12


@dataclass(frozen=True)
class GaussianModel:
    mu: np.ndarray
    sigma2: np.ndarray
    epsilon: float | None = None
    quantile: float | None = None


@dataclass(frozen=True)
class AnomalyReport:
    flags: np.ndarray
    probabilities: np.ndarray
    epsilon: float

    def flagged_indices(self) -> np.ndarray:
        return np.flatnonzero(self.flags)


def as_feature_matrix(samples) -> np.ndarray:
    """Coerce samples to a float (m, k) matrix.

    Accepts anything array-like of shape (m,), one feature per sample, or
    (m, k).
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise LengthError(f"expected samples of shape (m,) or (m, k), got {arr.shape}")
    return arr


def fit_rows(samples) -> tuple[np.ndarray, np.ndarray]:
    """Per-row feature means and population variances of a ``(rows, m, k)`` stack.

    Each row is an independent training set of m samples with k features.
    Variances use the 1/m denominator and are floored at
    ``VARIANCE_FLOOR_SCALE * (1 + mu**2)`` so constant features stay usable.
    Returns ``(mu, sigma2)``, each of shape ``(rows, k)``.

    Raises:
        InsufficientDataError: fewer than 2 samples per row.
        DataError: non-finite values.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 3:
        raise LengthError(f"expected a (rows, m, k) stack, got shape {x.shape}")
    if x.shape[1] < 2:
        raise InsufficientDataError(f"need at least 2 samples to fit, got {x.shape[1]}")
    if not np.isfinite(x).all():
        raise DataError("training samples contain non-finite values")
    mu = x.mean(axis=1)
    sigma2 = np.mean((x - mu[:, None, :]) ** 2, axis=1)
    return mu, np.maximum(sigma2, VARIANCE_FLOOR_SCALE * (1.0 + mu**2))


def log_probability_rows(mu, sigma2, samples) -> np.ndarray:
    """Log density of every sample of a ``(rows, m, k)`` stack, summed over features.

    Row r is scored by ``mu[r]`` and ``sigma2[r]``, both ``(rows, k)``; a
    single ``(1, k)`` model scores every row.  Returns ``(rows, m)``.

    Raises:
        LengthError: the feature counts differ.
        DataError: non-finite samples, which would score NaN and never flag.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 3:
        raise LengthError(f"expected a (rows, m, k) stack, got shape {x.shape}")
    if x.shape[2] != mu.shape[1]:
        raise LengthError(f"model has {mu.shape[1]} features, samples have {x.shape[2]}")
    if not np.isfinite(x).all():
        raise DataError("samples to score contain non-finite values")
    z2 = (x - mu[:, None, :]) ** 2 / sigma2[:, None, :]
    return -0.5 * np.sum(z2 + np.log(2.0 * math.pi * sigma2)[:, None, :], axis=2)


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
    """Score a ``(rows, m, k)`` stack and flag, per row, what falls below
    ``epsilon[r]``.  Returns ``(flags, probabilities)``, each ``(rows, m)``.

    Comparison happens in probability space; scores too small to represent
    underflow to 0.0 and are still flagged whenever epsilon is positive.
    """
    probs = np.exp(log_probability_rows(mu, sigma2, samples))
    return probs < np.asarray(epsilon)[:, None], probs


def fit(samples) -> GaussianModel:
    """Estimate per-feature mean and population variance; one row of fit_rows.

    Raises:
        InsufficientDataError: fewer than 2 samples.
        DataError: non-finite values.
    """
    mu, sigma2 = fit_rows(as_feature_matrix(samples)[None])
    mu, sigma2 = mu[0], sigma2[0]
    mu.setflags(write=False)
    sigma2.setflags(write=False)
    return GaussianModel(mu=mu, sigma2=sigma2)


def _one_row(model: GaussianModel) -> tuple[np.ndarray, np.ndarray]:
    return model.mu[None], model.sigma2[None]


def select_threshold(train_probabilities, quantile: float = 0.01) -> float:
    """Empirical lower quantile of the training probabilities; see threshold_rows."""
    p = np.asarray(train_probabilities, dtype=np.float64).ravel()
    return float(threshold_rows(p[None], quantile)[0])


def calibrate(model: GaussianModel, train_samples, quantile: float = 0.01) -> GaussianModel:
    """Return a copy of the model with epsilon picked from training scores."""
    x = as_feature_matrix(train_samples)[None]
    eps = float(calibrate_rows(*_one_row(model), x, quantile)[0])
    return dataclasses.replace(model, epsilon=eps, quantile=quantile)


def detect(model: GaussianModel, samples) -> AnomalyReport:
    """Flag every sample scoring strictly below the model's epsilon; one row
    of detect_rows.

    Raises:
        DataError: non-finite samples.
    """
    if model.epsilon is None:
        raise ValueError("model has no threshold; run calibrate() first")
    x = as_feature_matrix(samples)[None]
    flags, probs = detect_rows(*_one_row(model), [model.epsilon], x)
    flags, probs = flags[0], probs[0]
    probs.setflags(write=False)
    flags.setflags(write=False)
    return AnomalyReport(flags=flags, probabilities=probs, epsilon=model.epsilon)
