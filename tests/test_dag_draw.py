"""``generate_dag`` draws the stream of the frozen per-try loop.

The library draws its extra-edge tries in ``(m, 2)`` batches, each no
longer than the loop is sure to use, where the frozen loop makes one
``size=2`` call per try.  That is only the same stream if numpy's bounded
integer draws do not depend on how they are batched; the first tests pin
that behaviour of numpy itself, so an upgrade that breaks it fails here by
name.  The rest compare ``A``, ``sigma`` and the generator's end state with
``dag_reference``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rcakit.simulation import generate_dag

import dag_reference


def primed(seed):
    """A generator holding the spare half-word of a 32-bit draw."""
    rng = np.random.default_rng(seed)
    rng.integers(0, 10)
    return rng


@pytest.mark.parametrize("n", [2, 7, 500])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 1000, 4097])
def test_numpy_pair_draws_do_not_depend_on_batching(n, k):
    batched, single = primed(k), primed(k)
    pairs = batched.integers(0, n, size=(k, 2))
    assert pairs.dtype == np.int64
    assert pairs.tolist() == [single.integers(0, n, size=2).tolist() for _ in range(k)]
    assert batched.bit_generator.state == single.bit_generator.state


@pytest.mark.parametrize("n", [1, 2, 7, 500])
def test_numpy_array_high_draw_matches_scalar_calls(n):
    batched, single = primed(n), primed(n)
    parents = batched.integers(0, np.arange(1, n))
    assert parents.tolist() == [int(single.integers(0, i)) for i in range(1, n)]
    assert batched.bit_generator.state == single.bit_generator.state


def assert_same_draw(n_node, n_edge, seed):
    ours, frozen = np.random.default_rng(seed), np.random.default_rng(seed)
    got = generate_dag(n_node, n_edge, ours)
    want = dag_reference.generate_dag(n_node, n_edge, frozen)
    assert np.array_equal(got.A.view(np.uint64), want.A.view(np.uint64))
    assert np.array_equal(got.sigma.view(np.uint64), want.sigma.view(np.uint64))
    assert ours.bit_generator.state == frozen.bit_generator.state


@st.composite
def budgets(draw):
    n_node = draw(st.integers(1, 40))
    complete = n_node * (n_node - 1) // 2
    n_edge = draw(st.just(complete) | st.integers(n_node - 1, complete))
    return n_node, n_edge, draw(st.integers(0, 2**32))


@settings(max_examples=150, deadline=None)
@given(budgets())
@example((1, 0, 0)).via("one node, no edges")
@example((30, 435, 3)).via("complete: the fallback runs")
@example((40, 200, 0)).via("40 nodes, sparse")
@example((20, 190, (1, 20))).via("complete at 20")
@example((120, 1500, 2)).via("120 nodes")
@example((20, 189, 4)).via("complete - 1 at 20")
@example((20, 187, 5)).via("complete - 3 at 20")
@example((30, 434, 6)).via("complete - 1 at 30")
@example((30, 432, 7)).via("complete - 3 at 30")
def test_draw_matches_frozen_loop(drawn):
    assert_same_draw(*drawn)


@pytest.mark.parametrize("n_node, n_edge, seeds", [
    (50, 100, range(3)),
    (500, 5000, range(2)),
    (20, 190, [(s, 20) for s in range(25)]),
    (30, 435, [(s, 30) for s in range(25)]),
], ids=["d50", "n500", "complete-20", "complete-30"])
def test_fixed_rows_match_frozen_loop(fallback_calls, n_node, n_edge, seeds):
    for seed in seeds:
        assert_same_draw(n_node, n_edge, seed)
    # The frozen loop calls the builtin sorted, so the count is the library's.
    assert (len(fallback_calls) > 0) == (n_edge == n_node * (n_node - 1) // 2)
