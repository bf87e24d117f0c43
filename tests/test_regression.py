import numpy as np
import pytest
from scipy import stats

from rcakit.errors import DimensionMismatch, InsufficientData
from rcakit.model import CausalGraph, window_index_ranges
from rcakit.regression import COEF_LIMIT, centre, fit_stacks, sigma_floor
from rcakit.scoring import rht_score
from rcakit.simulation import case_record, generate_dataset

from conftest import make_case


def lstsq_oracle(y, X):
    """Independent least-squares route: SVD lstsq on the full design."""
    design = np.column_stack([np.ones(len(y)), X]) if X.size else np.ones((len(y), 1))
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    return beta[0], beta[1:]


class OneFit:
    """A one-member group: y fitted on the columns of X.

    ``predict`` evaluates the fit on new feature rows; the group's new
    target values are zero there, so a prediction is minus its deviation.
    """

    def __init__(self, y, X, new_rows=None):
        y = np.asarray(y, dtype=float)
        X = np.asarray(X, dtype=float)
        X = X.reshape(len(y), -1) if X.size else np.empty((len(y), 0))
        q = X.shape[1]
        new = np.empty((0, q)) if new_rows is None else np.asarray(new_rows, dtype=float)
        data = centre(np.column_stack([y, X]), np.column_stack([np.zeros(len(new)), new]))
        fit = fit_stacks(data, np.array([0]), [(np.array([0]), np.arange(1, q + 1).reshape(1, q))])
        self.coefficients = fit.coefficients[0][0]
        self.intercept = float(fit.intercept[0])
        self.residual_mean = float(fit.residual_mean[0])
        self.residual_std = float(fit.residual_std[0])
        self.predictions = -fit.deviation[0]

    @classmethod
    def predict(cls, y, X, new_rows):
        return cls(y, X, new_rows).predictions


def test_exact_linear_fit():
    x = np.arange(10.0)
    y = 2.0 * x
    model = OneFit(y, x.reshape(-1, 1))
    assert model.coefficients[0] == pytest.approx(2.0, abs=1e-9)
    assert model.intercept == pytest.approx(0.0, abs=1e-9)
    assert model.residual_std == pytest.approx(sigma_floor(float(y.std())))


def test_intercept_only_model():
    y = np.array([1.0, 2.0, 3.0, 6.0])
    model = OneFit(y, np.empty((4, 0)), np.empty((1, 0)))
    assert model.intercept == pytest.approx(y.mean())
    assert model.residual_std == pytest.approx(y.std())  # population std
    assert model.predictions[0] == pytest.approx(y.mean())


def test_noisy_fit_matches_oracle():
    rng = np.random.default_rng(42)
    x = rng.normal(size=1000)
    y = x + rng.normal(scale=0.1, size=1000)
    model = OneFit(y, x.reshape(-1, 1))
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
    model = OneFit(y, X)
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
    model = OneFit(y, X, [[0.0, 7.0]])
    assert model.coefficients[0] == pytest.approx(2.0, abs=1e-6)
    assert abs(model.coefficients[1]) < 1e-6
    assert model.predictions[0] == pytest.approx(1.0, abs=1e-6)


def test_insufficient_data():
    with pytest.raises(InsufficientData):
        OneFit([1.0], np.empty((1, 0)))


def test_predict_arithmetic():
    assert OneFit.predict(np.array([5.0, 5.0, 5.0]), np.empty((3, 0)), np.empty((1, 0)))[0] == 5.0

    x = np.array([0.0, 1.0, 2.0, 3.0])
    assert OneFit.predict(2.0 * x + 1.0, x.reshape(-1, 1), [[3.0], [10.0]]) == pytest.approx([7.0, 21.0])


def test_predict_dimension_mismatch():
    x = np.arange(10.0)
    with pytest.raises(DimensionMismatch):
        OneFit(2 * x, x.reshape(-1, 1), [[1.0, 2.0]])
    with pytest.raises(DimensionMismatch):
        OneFit(2 * x, x.reshape(-1, 1), np.zeros((3, 2)))

    ref = np.zeros((10, 2))
    with pytest.raises(DimensionMismatch):
        centre(ref, [[1.0, 2.0, 3.0]])
    with pytest.raises(DimensionMismatch):
        centre(ref, np.zeros(2))


def test_training_residual_mean_is_zero():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(10, 80))
        p = int(rng.integers(0, 5))
        X = rng.normal(size=(n, p))
        y = rng.normal(size=n) * float(rng.uniform(0.5, 100.0))
        model = OneFit(y, X)
        scale = max(1.0, float(np.abs(y).max()))
        assert abs(model.residual_mean) < 1e-9 * scale


def test_row_order_invariance():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(60, 3))
    y = X @ np.array([1.0, -2.0, 0.5]) + rng.normal(scale=0.2, size=60)
    model = OneFit(y, X)
    perm = rng.permutation(60)
    shuffled = OneFit(y[perm], X[perm])
    assert np.allclose(model.coefficients, shuffled.coefficients, atol=1e-10)
    assert model.intercept == pytest.approx(shuffled.intercept, abs=1e-10)
    assert model.residual_std == pytest.approx(shuffled.residual_std, abs=1e-10)


def test_prediction_is_affine():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(40, 2))
    y = X @ np.array([2.0, 3.0]) + 1.0 + rng.normal(scale=0.1, size=40)
    u, w = rng.normal(size=2), rng.normal(size=2)
    a, b = 0.7, -1.3
    model = OneFit(y, X, np.array([a * u + b * w, u, w]))
    lhs, pu, pw = model.predictions
    rhs = a * pu + b * pw - (a + b - 1) * model.intercept
    assert lhs == pytest.approx(rhs, abs=1e-9)


# --- the batched engine ---------------------------------------------------

def spy_solve(monkeypatch):
    """Record (shape of the Gram stack, result or None if it raised) per
    np.linalg.solve call."""
    calls = []
    solve = np.linalg.solve

    def spied(a, b):
        try:
            out = solve(a, b)
        except np.linalg.LinAlgError:
            calls.append((np.shape(a), None))
            raise
        calls.append((np.shape(a), out.copy()))
        return out

    monkeypatch.setattr(np.linalg, "solve", spied)
    return calls


def test_singular_member_does_not_move_its_neighbours(monkeypatch):
    rng = np.random.default_rng(8)
    ref = rng.normal(size=(60, 6))
    ref[:, 2] = ref[:, 0]  # columns 0 and 2 are twins
    new = rng.normal(size=(5, 6))
    data = centre(ref, new)
    targets, features = np.array([3, 4, 5]), np.array([[0, 2], [0, 1], [1, 2]])
    calls = spy_solve(monkeypatch)
    group = fit_stacks(data, targets, [(np.arange(3), features)])
    assert calls[0][0] == (3, 2, 2) and calls[0][1] is None  # the stacked solve raised
    for i in (1, 2):
        solo = fit_stacks(data, targets[i:i + 1], [(np.arange(1), features[i:i + 1])])
        assert np.array_equal(group.coefficients[0][i], solo.coefficients[0][0])
        for got, want in zip(group[1:], solo[1:]):
            assert np.array_equal(got[i], want[0])
    # the singular member takes the minimum-norm solution
    Xc, yc = ref[:, [0, 2]] - ref[:, [0, 2]].mean(axis=0), ref[:, 3] - ref[:, 3].mean()
    assert np.allclose(group.coefficients[0][0], np.linalg.lstsq(Xc, yc, rcond=1e-9)[0],
                       rtol=1e-12, atol=0)


def test_huge_coefficients_fall_back_to_minimum_norm(monkeypatch):
    rng = np.random.default_rng(1)
    u, v = rng.normal(size=30), rng.normal(size=30)
    X = np.column_stack([u, u + 1e-9 * v])  # a Gram with condition number near 1e20
    y = 1e6 * (u + v)
    calls = spy_solve(monkeypatch)
    model = OneFit(y, X)
    (_, solved), = calls
    assert np.abs(solved).max() >= COEF_LIMIT  # the solve returned, but too large
    Xc, yc = X - X.mean(axis=0), y - y.mean()
    assert np.allclose(model.coefficients, np.linalg.lstsq(Xc, yc, rcond=1e-9)[0],
                       rtol=1e-12, atol=0)
    assert np.abs(model.coefficients).max() < 1e7


def test_featureless_group(monkeypatch):
    rng = np.random.default_rng(9)
    ref = rng.normal(size=(30, 3)) * [1.0, 10.0, 0.0] + [0.0, -4.0, 2.0]
    new = rng.normal(size=(4, 3))
    calls = spy_solve(monkeypatch)
    members = np.arange(3)
    fit = fit_stacks(centre(ref, new), members, [(members, np.empty((3, 0), dtype=np.intp))])
    assert calls == []
    assert [c.shape for c in fit.coefficients] == [(3, 0)]
    assert np.allclose(fit.intercept, ref.mean(axis=0), rtol=1e-15, atol=0)
    assert np.allclose(fit.residual_std, np.maximum(ref.std(axis=0), sigma_floor(ref.std(axis=0))))
    assert fit.residual_std[2] == sigma_floor(0.0)
    assert np.allclose(fit.deviation, (new - ref.mean(axis=0)).T, atol=1e-14)
    assert np.all(np.abs(fit.residual_mean) < 1e-14)


def window_case(t_ref, t_test, n=3):
    rng = np.random.default_rng(3)
    values = {f"m{i}": rng.normal(size=40) for i in range(n)}
    return make_case(values, detect_time=30, t_ref=t_ref, t_delay=0, t_test=t_test)


def test_insufficient_reference_rows():
    graph = CausalGraph(nodes=["m0", "m1", "m2"], edges=[("m0", "m1")])
    with pytest.raises(InsufficientData):
        rht_score(window_case(t_ref=5, t_test=5), graph)  # one reference row
    rht_score(window_case(t_ref=6, t_test=5), graph)  # two suffice for rht
    with pytest.raises(InsufficientData):
        rht_score(window_case(t_ref=6, t_test=5), graph, use_lagged_self=True)
    rht_score(window_case(t_ref=7, t_test=5), graph, use_lagged_self=True)


@pytest.mark.parametrize("lagged", [False, True])
def test_one_solve_per_feature_count(monkeypatch, lagged):
    names = [f"m{i}" for i in range(12)]
    # parent counts 0, 1, 2 and 3, several nodes each
    edges = [(names[j], names[i]) for i in range(12) for j in range(i % 4)]
    rng = np.random.default_rng(4)
    case = make_case({m: rng.normal(size=126) for m in names}, detect_time=120)
    calls = spy_solve(monkeypatch)
    rht_score(case, CausalGraph(nodes=names, edges=edges), use_lagged_self=lagged)
    counts = sorted(shape[1] for shape, out in calls if out is not None)
    assert len(calls) == len(counts)  # nothing raised
    assert counts == ([1, 2, 3, 4] if lagged else [1, 2, 3])


def test_lagged_fit_sigma_matches_the_true_noise_at_d50():
    # The simulator's node i is x_i = A_i x + beta x_i,prev + sigma_i e, so
    # a lagged fit on its parents is the true model: n (s / sigma_i)^2 is
    # chi-square with n - p - 1 degrees of freedom (p features, one mean),
    # s being the fit's population std over n reference rows.  Every fit
    # must lie inside the two-sided band at a family-wise level of 0.01.
    dataset = generate_dataset(50, 100, n_graphs=4, cases_per_graph=10, rng_seed=11)
    stat, dof, sigma = [], [], []
    for record in dataset.graphs:
        graph, dag = record.graph, record.dag
        true_sigma = dict(zip(dag.graph.names, dag.sigma))
        features = np.diff(graph.parent_ptr) + 1  # the parents and the lag
        for entry in record.cases:
            case = case_record(entry).case
            col = {m: j for j, m in enumerate(case.metrics)}
            columns = np.array([col[m] for m in graph.names])
            ref, test = window_index_ranges(case)
            full, lag = case.values, case.values.shape[1]
            data = centre(np.hstack([full[ref.start + 1:ref.stop], full[ref.start:ref.stop - 1]]),
                          np.hstack([full[test.start:test.stop],
                                     full[test.start - 1:test.stop - 1]]))
            fit = fit_stacks(data, columns, graph.fit_plan(columns, lag))
            stat.append(data.n_ref * fit.residual_std ** 2)
            dof.append(data.n_ref - features - 1)
            sigma.append([true_sigma[m] for m in graph.names])
    stat = np.concatenate(stat) / np.concatenate(sigma) ** 2
    dof = np.concatenate(dof)
    assert stat.size == 4 * 10 * 50
    tail = np.minimum(stats.chi2.cdf(stat, dof), stats.chi2.sf(stat, dof))
    assert tail.min() > 0.01 / (2 * stat.size), tail.min()


def test_lagged_fit_coefficients_match_the_true_mechanism_at_d50():
    # A lagged fit on the parents is the simulator's own model, so each
    # coefficient minus its true value (dag.A[i, parent], or dag.beta for
    # the lag) over its standard error is t-distributed with n - p - 1
    # degrees of freedom.  The error comes from the centred reference
    # design, with s^2 = n std^2 / (n - p - 1).  Every t must lie inside the
    # two-sided band at a family-wise level of 0.01.
    dataset = generate_dataset(50, 100, n_graphs=4, cases_per_graph=10, rng_seed=11, t_ref=2000)
    t_stats, dofs = [], []
    for record in dataset.graphs:
        graph, dag = record.graph, record.dag  # graph ids index dag.A, as test_simulation checks
        for entry in record.cases:
            case = case_record(entry).case
            col = {m: j for j, m in enumerate(case.metrics)}
            columns = np.array([col[m] for m in graph.names])
            ref, test = window_index_ranges(case)
            full, lag = case.values, case.values.shape[1]
            data = centre(np.hstack([full[ref.start + 1:ref.stop], full[ref.start:ref.stop - 1]]),
                          np.hstack([full[test.start:test.stop],
                                     full[test.start - 1:test.stop - 1]]))
            plan = graph.fit_plan(columns, lag)
            fit = fit_stacks(data, columns, plan)
            n = data.n_ref
            for (members, blocks), coefs in zip(plan, fit.coefficients):
                for i, block, coef in zip(members, blocks, coefs):
                    parents = graph.parent_ids[graph.parent_ptr[i]:graph.parent_ptr[i + 1]]
                    true = np.append(dag.A[i, parents], dag.beta)
                    X = data.rows[block, :n]
                    dof = n - len(block) - 1
                    s2 = n * fit.residual_std[i] ** 2 / dof
                    se = np.sqrt(s2 * np.diag(np.linalg.inv(X @ X.T)))
                    t_stats.append((coef - true) / se)
                    dofs.append(np.full(len(block), dof))
    t_stats, dofs = np.concatenate(t_stats), np.concatenate(dofs)
    assert t_stats.size == 4 * 10 * (100 + 50)
    p = 2 * stats.t.sf(np.abs(t_stats), dofs)
    assert p.min() > 0.01 / t_stats.size, (np.abs(t_stats).max(), p.min())
