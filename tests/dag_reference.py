"""The DAG draw that the batched ``generate_dag`` replaced, frozen.

``generate_dag`` is the library's former ``rcakit.simulation.generate_dag``:
one scalar ``integers`` call per tree parent, one ``size=2`` call per
extra-edge try, and one scalar store per weight.  The library's draw must
give the same ``A`` and ``sigma`` bit for bit, and leave a ``Generator``
passed as ``rng_seed`` in the same state.
"""

import numpy as np

from rcakit.errors import EdgeBudgetInfeasible
from rcakit.simulation import MIN_NOISE_STD, WEIGHT_HIGH, WEIGHT_LOW, WeightedDag


def generate_dag(n_node: int, n_edge: int, rng_seed) -> WeightedDag:
    """Draw a connected DAG with the requested node and edge counts.

    A random tree pointing every node at a lower-indexed one guarantees
    connectivity and a path from every node into the SLI; the remaining
    edges are sampled uniformly over unused (higher -> lower) pairs.
    Weight magnitudes are uniform in (0.5, 2.0) with random sign; noise
    standard deviations are exponential with scale 1, floored at 0.01.
    """
    if n_node < 1:
        raise ValueError("need at least one node")
    max_edges = n_node * (n_node - 1) // 2
    if n_edge < n_node - 1 or n_edge > max_edges:
        raise EdgeBudgetInfeasible(
            f"{n_edge} edges infeasible for {n_node} nodes "
            f"(valid range: [{n_node - 1}, {max_edges}])"
        )
    rng = np.random.default_rng(rng_seed)
    edges: list[tuple[int, int]] = []
    used = set()
    for i in range(1, n_node):
        j = int(rng.integers(0, i))
        edges.append((i, j))
        used.add((i, j))
    for _ in range(n_edge - (n_node - 1)):
        pair = None
        for _ in range(200):
            a, b = rng.integers(0, n_node, size=2)
            if a == b:
                continue
            i, j = (int(a), int(b)) if a > b else (int(b), int(a))
            if (i, j) not in used:
                pair = (i, j)
                break
        if pair is None:
            # Rejection stalled (dense graph); fall back to an explicit draw
            # over the remaining pairs.
            free = sorted(
                (i, j) for i in range(1, n_node) for j in range(i) if (i, j) not in used
            )
            pair = free[int(rng.integers(0, len(free)))]
        edges.append(pair)
        used.add(pair)

    magnitudes = rng.uniform(WEIGHT_LOW, WEIGHT_HIGH, size=len(edges))
    signs = rng.integers(0, 2, size=len(edges)) * 2 - 1
    sigma = np.maximum(rng.exponential(1.0, size=n_node), MIN_NOISE_STD)
    A = np.zeros((n_node, n_node))
    for (i, j), mag, sign in zip(edges, magnitudes, signs):
        A[j, i] = sign * mag  # i causes j
    return WeightedDag(A=A, sigma=sigma)
