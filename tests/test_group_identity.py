"""One ``fit_group`` call per detector against one call per feature count.

Fitting every member in one call changes only how members are grouped
and when the residual statistics are taken, so it must reproduce the
per-count results bit for bit.  Floats are compared through their
uint64 bit patterns, not by ``==``: that also tells -0.0 from 0.0 and
holds NaN equal to the same NaN.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcakit.regression import COEF_LIMIT, centre, fit_group
from rcakit.scoring import rht_score
from rcakit.simulation import generate_dataset

import group_reference as reference


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


@pytest.mark.parametrize("nodes, edges, graphs, cases", [(50, 100, 3, 10), (500, 5000, 1, 3)],
                         ids=["50-node", "500-node"])
def test_rht_score_equals_the_per_count_loop(nodes, edges, graphs, cases):
    dataset = generate_dataset(nodes, edges, n_graphs=graphs, cases_per_graph=cases, rng_seed=19)
    for record in dataset.graphs:
        for case_record in record.cases:
            for lagged in (False, True):  # rht, then rht-pg
                got = rht_score(case_record.case, record.graph, use_lagged_self=lagged)
                want = reference.rht_score(case_record.case, record.graph, use_lagged_self=lagged)
                assert list(got) == list(want)
                assert np.array_equal(bits(list(got.values())), bits(list(want.values()))), \
                    (case_record.case_id, lagged)


def special_columns():
    """Reference columns 0-4: u and its near-twin u + 1e-9 v, a target
    1e6 (u + v) whose normal equations solve to coefficients beyond
    COEF_LIMIT on them, and exact twins w, w."""
    rng = np.random.default_rng(1)
    u, v, w = rng.normal(size=(3, 30))
    return np.column_stack([u, u + 1e-9 * v, 1e6 * (u + v), w, w])


#: Members of every drawn call: featureless, the COEF_LIMIT fallback and
#: the singular twin-column fit.
SPECIAL_MEMBERS = [(0, []), (2, [0, 1]), (0, [3, 4])]


def test_special_members_take_the_fallbacks():
    ref = special_columns()
    centred = ref - ref.mean(axis=0)
    gram = centred[:, :2].T @ centred[:, :2]
    assert np.abs(np.linalg.solve(gram, centred[:, :2].T @ centred[:, 2])).max() >= COEF_LIMIT
    twins = centred[:, 3:5]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(twins.T @ twins, twins.T @ centred[:, 0])


@st.composite
def ragged_calls(draw):
    extra = draw(st.integers(1, 4))
    n_col = 5 + extra
    seed = draw(st.integers(0, 2**32 - 1))
    m = draw(st.integers(1, 4))
    drawn = draw(st.lists(st.tuples(st.integers(0, n_col - 1),
                                    st.lists(st.integers(0, n_col - 1), max_size=4, unique=True)),
                          max_size=8))
    members = draw(st.permutations(SPECIAL_MEMBERS + drawn))
    return seed, extra, m, members


@settings(max_examples=60, deadline=None)
@given(ragged_calls())
def test_one_ragged_call_equals_one_call_per_count(call):
    seed, extra, m, members = call
    rng = np.random.default_rng(seed)
    ref = np.column_stack([special_columns(), rng.normal(size=(30, extra)) * 10.0])
    new = rng.normal(size=(m, ref.shape[1]))
    data = centre(ref, new)
    targets = [t for t, _ in members]
    features = [f for _, f in members]
    whole = fit_group(data, targets, features)
    assert len(whole.coefficients) == len(members)
    for q in {len(f) for f in features}:
        rows = [i for i, f in enumerate(features) if len(f) == q]
        part = fit_group(data, [targets[i] for i in rows],
                         np.array([features[i] for i in rows], dtype=np.intp).reshape(len(rows), q))
        for j, i in enumerate(rows):
            assert whole.coefficients[i].shape == (q,)
            assert np.array_equal(bits(whole.coefficients[i]), bits(part.coefficients[j]))
            for field in ("intercept", "residual_mean", "residual_std", "deviation"):
                got, want = getattr(whole, field)[i], getattr(part, field)[j]
                assert np.array_equal(bits(got), bits(want)), (field, members[i])
