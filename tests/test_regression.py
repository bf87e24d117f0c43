import numpy as np
import pytest

from rcakit.errors import DimensionMismatch, InsufficientData
from rcakit.regression import fit_ols, predict_rows, sigma_floor


def lstsq_oracle(y, X):
    """Independent least-squares route: SVD lstsq on the full design."""
    design = np.column_stack([np.ones(len(y)), X]) if X.size else np.ones((len(y), 1))
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    return beta[0], beta[1:]


def test_exact_linear_fit():
    x = np.arange(10.0)
    y = 2.0 * x
    model = fit_ols(y, x.reshape(-1, 1))
    assert model.coefficients[0] == pytest.approx(2.0, abs=1e-9)
    assert model.intercept == pytest.approx(0.0, abs=1e-9)
    assert model.residual_std == pytest.approx(sigma_floor(float(y.std())))


def test_intercept_only_model():
    y = np.array([1.0, 2.0, 3.0, 6.0])
    model = fit_ols(y, np.empty((4, 0)))
    assert model.intercept == pytest.approx(y.mean())
    assert model.residual_std == pytest.approx(y.std())  # population std
    assert predict_rows(model, np.empty((1, 0)))[0] == pytest.approx(y.mean())


def test_noisy_fit_matches_oracle():
    rng = np.random.default_rng(42)
    x = rng.normal(size=1000)
    y = x + rng.normal(scale=0.1, size=1000)
    model = fit_ols(y, x.reshape(-1, 1), target="y", features=("x",))
    assert model.coefficients[0] == pytest.approx(1.0, abs=0.05)
    assert model.residual_std == pytest.approx(0.1, abs=0.02)
    intercept, coef = lstsq_oracle(y, x.reshape(-1, 1))
    assert model.intercept == pytest.approx(intercept, abs=1e-9)
    assert model.coefficients[0] == pytest.approx(coef[0], abs=1e-9)


def test_degenerate_design_uses_minimum_norm():
    rng = np.random.default_rng(1)
    x = rng.normal(size=50)
    X = np.column_stack([x, x])  # exactly collinear
    y = 3.0 * x + rng.normal(scale=0.01, size=50)
    model = fit_ols(y, X)
    # minimum norm splits the weight evenly between the twin columns
    assert model.coefficients[0] == pytest.approx(model.coefficients[1], abs=1e-6)
    assert model.coefficients.sum() == pytest.approx(3.0, abs=0.05)
    # predictions agree with the centered pseudo-inverse solution
    Xc = X - X.mean(axis=0)
    coef = np.linalg.pinv(Xc, rcond=1e-9) @ (y - y.mean())
    assert np.allclose(model.coefficients, coef, atol=1e-8)


def test_constant_feature_gets_zero_weight():
    rng = np.random.default_rng(2)
    x = rng.normal(size=80)
    X = np.column_stack([x, np.full(80, 7.0)])
    y = 2.0 * x + 1.0
    model = fit_ols(y, X)
    assert model.coefficients[0] == pytest.approx(2.0, abs=1e-6)
    assert abs(model.coefficients[1]) < 1e-6
    assert predict_rows(model, [[0.0, 7.0]])[0] == pytest.approx(1.0, abs=1e-6)


def test_insufficient_data():
    with pytest.raises(InsufficientData):
        fit_ols([1.0], np.empty((1, 0)))


def test_predict_arithmetic():
    model = fit_ols(np.array([5.0, 5.0, 5.0]), np.empty((3, 0)))
    assert predict_rows(model, np.empty((1, 0)))[0] == 5.0

    x = np.array([0.0, 1.0, 2.0, 3.0])
    model = fit_ols(2.0 * x + 1.0, x.reshape(-1, 1))
    assert predict_rows(model, [[3.0], [10.0]]) == pytest.approx([7.0, 21.0])


def test_predict_dimension_mismatch():
    x = np.arange(10.0)
    model = fit_ols(2 * x, x.reshape(-1, 1))
    with pytest.raises(DimensionMismatch):
        predict_rows(model, [[1.0, 2.0]])
    with pytest.raises(DimensionMismatch):
        predict_rows(model, np.zeros((3, 2)))


def test_training_residual_mean_is_zero():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(10, 80))
        p = int(rng.integers(0, 5))
        X = rng.normal(size=(n, p))
        y = rng.normal(size=n) * float(rng.uniform(0.5, 100.0))
        model = fit_ols(y, X)
        scale = max(1.0, float(np.abs(y).max()))
        assert abs(model.residual_mean) < 1e-9 * scale


def test_row_order_invariance():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(60, 3))
    y = X @ np.array([1.0, -2.0, 0.5]) + rng.normal(scale=0.2, size=60)
    model = fit_ols(y, X)
    perm = rng.permutation(60)
    shuffled = fit_ols(y[perm], X[perm])
    assert np.allclose(model.coefficients, shuffled.coefficients, atol=1e-10)
    assert model.intercept == pytest.approx(shuffled.intercept, abs=1e-10)
    assert model.residual_std == pytest.approx(shuffled.residual_std, abs=1e-10)


def test_prediction_is_affine():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(40, 2))
    y = X @ np.array([2.0, 3.0]) + 1.0 + rng.normal(scale=0.1, size=40)
    model = fit_ols(y, X)
    u, w = rng.normal(size=2), rng.normal(size=2)
    a, b = 0.7, -1.3
    lhs, pu, pw = predict_rows(model, np.array([a * u + b * w, u, w]))
    rhs = a * pu + b * pw - (a + b - 1) * model.intercept
    assert lhs == pytest.approx(rhs, abs=1e-9)
