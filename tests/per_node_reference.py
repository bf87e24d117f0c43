"""The per-node regression path that the batched engine replaced, frozen.

``fit_ols`` and ``rht_score`` here are the library's former per-node
implementation, kept unchanged in arithmetic as a reference: one
normal-equation solve per node, the same ``lstsq`` fallback, residuals
from the raw (uncentred) rows.  The batched ``rcakit.scoring.rht_score``
is checked against them.
"""

from typing import NamedTuple

import numpy as np

from rcakit.errors import DimensionMismatch, InsufficientData
from rcakit.model import window_index_ranges
from rcakit.regression import sigma_floor


class FittedModel(NamedTuple):
    coefficients: np.ndarray
    intercept: float
    residual_mean: float
    residual_std: float


def fit_ols(target_values, feature_matrix) -> FittedModel:
    """Ordinary least squares with an intercept, one node at a time."""
    y = np.asarray(target_values, dtype=float)
    X = np.asarray(feature_matrix, dtype=float)
    if X.ndim == 1:
        X = X.reshape(len(y), -1) if X.size else X.reshape(len(y), 0)
    n, p = X.shape
    if len(y) != n:
        raise DimensionMismatch(f"{len(y)} targets vs {n} feature rows")
    if n < 2:
        raise InsufficientData(f"need at least 2 rows, got {n}")

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
    return FittedModel(coef, float(intercept), mu, sigma)


def node_designs(case, graph, node, use_lagged_self):
    """(y, X, X_test, y_test) of one node's regression, as rht_score builds them."""
    col = {m: j for j, m in enumerate(case.metrics)}
    full = case.values
    ref_idx, test_idx = window_index_ranges(case)
    ref = full[ref_idx.start:ref_idx.stop]
    test = full[test_idx.start:test_idx.stop]
    test_rows = np.arange(test_idx.start, test_idx.stop)
    pcols = [col[p] for p in graph.parents(node)]
    y = ref[:, col[node]]
    X = ref[:, pcols]
    X_test = test[:, pcols]
    if use_lagged_self:
        X = np.column_stack([X[1:], ref[:-1, col[node]]])
        y = y[1:]
        X_test = np.column_stack([X_test, full[test_rows - 1, col[node]]])
    return y, X, X_test, test[:, col[node]]


def rht_score(case, graph, use_lagged_self=False):
    """Per-node rht scores: one fit_ols per graph node."""
    scores = {}
    for node in sorted(graph.nodes):
        y, X, X_test, y_test = node_designs(case, graph, node, use_lagged_self)
        model = fit_ols(y, X)
        deviation = y_test - (X_test @ model.coefficients + model.intercept)
        a = np.abs((deviation - model.residual_mean) / model.residual_std)
        scores[node] = float(a.max())
    return scores
