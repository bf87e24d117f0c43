"""Per-metric regression on reference data, with residual statistics.

Each metric gets a least-squares model of its value given its causal
parents (optionally plus its own lagged value).  The residual mean and
standard deviation summarize how tightly the reference data follow the
fitted relation; scoring standardizes test-window deviations by them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, InsufficientData
from .model import MetricId

#: Relative floor applied to residual standard deviations so that perfectly
#: predicted or constant targets cannot produce infinite scores.
SIGMA_FLOOR_SCALE = 1e-6


@dataclass(frozen=True)
class FittedModel:
    """A fitted per-metric regression and its residual statistics."""

    target: MetricId
    features: tuple[MetricId, ...]
    coefficients: np.ndarray
    intercept: float
    residual_mean: float
    residual_std: float

    def __post_init__(self):
        coef = np.asarray(self.coefficients, dtype=float)
        coef.flags.writeable = False
        object.__setattr__(self, "coefficients", coef)
        if coef.shape != (len(self.features),):
            raise ValueError("one coefficient per feature required")
        if self.residual_std <= 0:
            raise ValueError("residual_std must be positive (floored)")


def sigma_floor(target_std):
    """Smallest residual std accepted for a target with this spread
    (elementwise for an array of spreads)."""
    return SIGMA_FLOOR_SCALE * np.maximum(1.0, target_std)


def fit_ols(
    target_values: Sequence[float],
    feature_matrix,
    target: MetricId = "",
    features: Optional[Sequence[MetricId]] = None,
) -> FittedModel:
    """Fit ordinary least squares with an intercept.

    The solver works on mean-centered data via the normal equations; a
    singular system falls back to the minimum-norm solution.  Residual
    statistics use the population standard deviation, floored so a
    perfect fit still yields a usable scale.
    """
    y = np.asarray(target_values, dtype=float)
    X = np.asarray(feature_matrix, dtype=float)
    if X.ndim == 1:
        X = X.reshape(len(y), -1) if X.size else X.reshape(len(y), 0)
    n, p = X.shape
    if len(y) != n:
        raise DimensionMismatch(f"{len(y)} targets vs {n} feature rows")
    if n < 2:
        raise InsufficientData(f"need at least 2 rows, got {n}")
    if features is None:
        features = tuple(f"x{j}" for j in range(p))
    features = tuple(features)
    if len(features) != p:
        raise DimensionMismatch(f"{len(features)} feature names vs {p} columns")

    y_mean = y.mean()
    if p == 0:
        coef = np.empty(0)
        intercept = y_mean
        residuals = y - y_mean
    else:
        x_mean = X.mean(axis=0)
        Xc = X - x_mean
        yc = y - y_mean
        gram = Xc.T @ Xc
        rhs = Xc.T @ yc
        coef = None
        try:
            candidate = np.linalg.solve(gram, rhs)
            # A near-singular Gram matrix "solves" to astronomically large
            # coefficients; route those to the minimum-norm path instead.
            if np.isfinite(candidate).all() and np.abs(candidate).max() < 1e12:
                coef = candidate
        except np.linalg.LinAlgError:
            pass
        if coef is None:
            coef, *_ = np.linalg.lstsq(Xc, yc, rcond=1e-9)
        intercept = y_mean - float(coef @ x_mean)
        residuals = y - (X @ coef + intercept)

    mu = float(residuals.mean())
    sigma = float(residuals.std())  # population std
    sigma = max(sigma, sigma_floor(float(y.std())))
    return FittedModel(
        target=target,
        features=features,
        coefficients=coef,
        intercept=float(intercept),
        residual_mean=mu,
        residual_std=sigma,
    )


def predict_rows(model: FittedModel, feature_rows: np.ndarray) -> np.ndarray:
    """Evaluate the fitted relation on each row of a (rows, features) matrix."""
    rows = np.asarray(feature_rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != len(model.features):
        raise DimensionMismatch(
            f"model expects (*, {len(model.features)}) rows, got {rows.shape}"
        )
    return rows @ model.coefficients + model.intercept
