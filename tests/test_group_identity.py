"""One ``fit_stacks`` call per detector against one call per feature count.

Fitting every group in one call changes only when the residual
statistics are taken, so it must reproduce the per-count results bit
for bit.  Floats are compared through their uint64 bit patterns, not by
``==``: that also tells -0.0 from 0.0 and holds NaN equal to the same
NaN.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcakit.regression import COEF_LIMIT, centre, fit_stacks
from rcakit.scoring import rht_score
from rcakit.simulation import case_record, generate_dataset

import group_reference as reference


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


@pytest.mark.parametrize("nodes, edges, graphs, cases", [(50, 100, 3, 10), (500, 5000, 1, 3)],
                         ids=["50-node", "500-node"])
def test_rht_score_equals_the_per_count_loop(nodes, edges, graphs, cases):
    dataset = generate_dataset(nodes, edges, n_graphs=graphs, cases_per_graph=cases, rng_seed=19)
    for record in dataset.graphs:
        for entry in record.cases:
            drawn = case_record(entry)
            for lagged in (False, True):  # rht, then rht-pg
                got = rht_score(drawn.case, record.graph, use_lagged_self=lagged)
                want = reference.rht_score(drawn.case, record.graph, use_lagged_self=lagged)
                assert list(got) == list(want)
                assert np.array_equal(bits(list(got.values())), bits(list(want.values()))), \
                    (drawn.case_id, lagged)


def special_columns():
    """Reference columns 0-4: u and its near-twin u + 1e-9 v, a target
    1e6 (u + v) whose normal equations solve to coefficients beyond
    COEF_LIMIT on them, and exact twins w, w."""
    rng = np.random.default_rng(1)
    u, v, w = rng.normal(size=(3, 30))
    return np.column_stack([u, u + 1e-9 * v, 1e6 * (u + v), w, w])


#: Members of every drawn call, by feature count: featureless, then the
#: COEF_LIMIT fallback and the singular twin-column fit.
SPECIAL_GROUPS = {0: [(0, [])], 2: [(2, [0, 1]), (0, [3, 4])]}


def test_special_members_take_the_fallbacks():
    ref = special_columns()
    centred = ref - ref.mean(axis=0)
    gram = centred[:, :2].T @ centred[:, :2]
    assert np.abs(np.linalg.solve(gram, centred[:, :2].T @ centred[:, 2])).max() >= COEF_LIMIT
    twins = centred[:, 3:5]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(twins.T @ twins, twins.T @ centred[:, 0])


@st.composite
def grouped_calls(draw):
    """Whole per-count groups of (target, features) members, in drawn order,
    and a drawn position in the call for every member."""
    extra = draw(st.integers(1, 4))
    n_col = 5 + extra
    seed = draw(st.integers(0, 2**32 - 1))
    m = draw(st.integers(1, 4))
    column = st.integers(0, n_col - 1)
    groups = {q: list(members) for q, members in SPECIAL_GROUPS.items()}
    for q in draw(st.lists(st.integers(0, 4), unique=True, max_size=4)):
        groups.setdefault(q, []).extend(draw(st.lists(
            st.tuples(column, st.lists(column, min_size=q, max_size=q, unique=True)),
            min_size=1, max_size=3)))
    groups = [draw(st.permutations(members))
              for members in draw(st.permutations(list(groups.values())))]
    positions = draw(st.permutations(range(sum(map(len, groups)))))
    return seed, extra, m, groups, positions


@settings(max_examples=60, deadline=None)
@given(grouped_calls())
def test_one_ragged_call_equals_one_call_per_count(call):
    seed, extra, m, groups, positions = call
    rng = np.random.default_rng(seed)
    ref = np.column_stack([special_columns(), rng.normal(size=(30, extra)) * 10.0])
    new = rng.normal(size=(m, ref.shape[1]))
    data = centre(ref, new)
    targets = np.empty(len(positions), dtype=np.intp)
    stacks, start = [], 0
    for members in groups:
        at = np.array(positions[start:start + len(members)], dtype=np.intp)
        start += len(members)
        targets[at] = [t for t, _ in members]
        q = len(members[0][1])
        stacks.append((at, np.array([f for _, f in members], dtype=np.intp).reshape(len(at), q)))
    whole = fit_stacks(data, targets, stacks)
    assert len(whole.coefficients) == len(stacks)
    for coefficients, (at, index) in zip(whole.coefficients, stacks):
        part = fit_stacks(data, targets[at], [(np.arange(len(at)), index)])
        assert coefficients.shape == index.shape
        assert np.array_equal(bits(coefficients), bits(part.coefficients[0]))
        for field in ("intercept", "residual_mean", "residual_std", "deviation"):
            got, want = getattr(whole, field)[at], getattr(part, field)
            assert np.array_equal(bits(got), bits(want)), (field, index.shape)
