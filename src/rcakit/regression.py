"""Per-metric regression on reference data, with residual statistics.

Each metric gets a least-squares model of its value given its causal
parents (optionally plus its own lagged value).  The residual mean and
standard deviation summarize how tightly the reference data follow the
fitted relation; scoring standardizes deviations on new rows by them.
One call fits every metric: fits that share a feature count are solved
as one stack, and the statistics of all are taken in one pass.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, InsufficientData

#: Relative floor applied to residual standard deviations so that perfectly
#: predicted or constant targets cannot produce infinite scores.
SIGMA_FLOOR_SCALE = 1e-6

#: A near-singular Gram matrix "solves" to coefficients this large (or to
#: non-finite ones); such fits take the minimum-norm solution instead.
COEF_LIMIT = 1e12


def sigma_floor(target_std):
    """Smallest residual std accepted for a target with this spread
    (elementwise for an array of spreads)."""
    return SIGMA_FLOOR_SCALE * np.maximum(1.0, target_std)


class Centred(NamedTuple):
    """Reference and new rows, centred on the reference column means.

    ``rows[c]`` holds column c: its ``n_ref`` reference values followed by
    its new values, each minus the column's reference mean ``mean[c]``.
    """

    mean: np.ndarray
    rows: np.ndarray
    n_ref: int


class GroupFit(NamedTuple):
    """k fits, taken in groups of members that share a feature count q."""

    coefficients: tuple  # one (k_q, q) array per group, in the order given
    intercept: np.ndarray  # (k,)
    residual_mean: np.ndarray  # (k,) over the reference rows
    residual_std: np.ndarray  # (k,) population std, floored
    deviation: np.ndarray  # (k, m) new value minus prediction, per new row


def require_reference_rows(n: int) -> None:
    """InsufficientData for a reference window of fewer than 2 rows."""
    if n < 2:
        raise InsufficientData(f"need at least 2 reference rows, got {n}")


def centre(ref, new) -> Centred:
    """Centre a (n, C) reference block and (m, C) new rows on the
    reference column means."""
    ref = np.asarray(ref, dtype=float)
    new = np.asarray(new, dtype=float)
    if ref.ndim != 2 or new.ndim != 2 or ref.shape[1] != new.shape[1]:
        raise DimensionMismatch(f"reference {ref.shape} and new rows {new.shape} differ in columns")
    require_reference_rows(len(ref))
    # One contiguous row per column: pairwise-summed means, as for a single
    # series, so the centred designs equal a per-node fit's bit for bit.
    rows = np.ascontiguousarray(np.concatenate([ref, new]).T)
    mean = rows[:, :len(ref)].mean(axis=1)
    rows -= mean[:, None]
    return Centred(mean, rows, len(ref))


def fit_stacks(data: Centred, targets: np.ndarray, groups) -> GroupFit:
    """Fit column ``targets[i]`` on its feature columns for each member i.

    ``groups`` holds one ``(members, index)`` pair per feature count q:
    positions in ``targets`` and the (k_q, q) array of their feature
    columns.  Each group's normal equations are solved in one stacked call;
    a member whose coefficients come out non-finite or at least
    ``COEF_LIMIT`` in magnitude takes the minimum-norm ``lstsq`` solution.
    One pass then takes every member's residual statistics: the population
    std of its explicit reference residuals, floored so a perfect fit still
    yields a usable scale.
    """
    n, k = data.n_ref, len(targets)
    residuals, intercept, coefficients = np.empty((k, data.rows.shape[1])), np.empty(k), []
    for members, index in groups:
        group = targets[members]
        y = data.rows[group]  # (k_q, n + m)
        X = data.rows[index]  # (k_q, q, n + m)
        coef = _solve(X[:, :, :n], y[:, :n])
        residuals[members] = y - np.einsum("kqr,kq->kr", X, coef)
        intercept[members] = data.mean[group] - np.einsum("kq,kq->k", coef, data.mean[index])
        coefficients.append(coef)
    ref = residuals[:, :n]
    sigma = np.maximum(ref.std(axis=1), sigma_floor(data.rows[targets, :n].std(axis=1)))
    return GroupFit(tuple(coefficients), intercept, ref.mean(axis=1), sigma, residuals[:, n:])


def _solve(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients of each centred target y[i] on the centred design X[i].T."""
    k, q, _ = X.shape
    if q == 0:
        return np.zeros((k, 0))
    gram = X @ X.transpose(0, 2, 1)
    rhs = X @ y[:, :, None]
    try:
        coef = np.linalg.solve(gram, rhs)[:, :, 0]
    except np.linalg.LinAlgError:
        # One exactly singular Gram fails the whole stack: solve the members
        # one by one, so that it cannot move its neighbours.  NaN marks a
        # member that stays singular, for lstsq below.
        coef = np.full((k, q), np.nan)
        for i in range(k):
            try:
                coef[i] = np.linalg.solve(gram[i], rhs[i])[:, 0]
            except np.linalg.LinAlgError:
                pass
    for i in np.flatnonzero(~(np.abs(coef) < COEF_LIMIT).all(axis=1)):
        coef[i] = np.linalg.lstsq(X[i].T, y[i], rcond=1e-9)[0]
    return coef
