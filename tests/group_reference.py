"""The per-feature-count fitting loop that one-call fitting replaced, frozen.

``fit_count_group`` is the library's former ``fit_group``: members that
all have q features, given as a (k, q) array, solved as one stack with
their residual statistics taken for that stack alone.  ``rht_score``
here is the former ``rcakit.scoring.rht_score``, which grouped the nodes
by feature count and called it once per count.  The solver, the centring
and the sigma floor are the library's own, so the two differ only in how
members are grouped and when their statistics are taken;
``rcakit.scoring.rht_score`` must give the same scores bit for bit.
"""

import numpy as np

from rcakit.model import window_index_ranges
from rcakit.regression import _solve, centre, sigma_floor


def fit_count_group(data, targets, features):
    """(coefficients, intercept, residual_mean, residual_std, deviation) of
    k members, each fitted on its row of the (k, q) index array."""
    targets = np.asarray(targets, dtype=np.intp)
    features = np.asarray(features, dtype=np.intp)
    n = data.n_ref
    y = data.rows[targets]  # (k, n + m)
    X = data.rows[features]  # (k, q, n + m)
    coef = _solve(X[:, :, :n], y[:, :n])
    residuals = y - np.einsum("kqr,kq->kr", X, coef)
    ref_residuals = residuals[:, :n]
    sigma = np.maximum(ref_residuals.std(axis=1), sigma_floor(y[:, :n].std(axis=1)))
    intercept = data.mean[targets] - np.einsum("kq,kq->k", coef, data.mean[features])
    return coef, intercept, ref_residuals.mean(axis=1), sigma, residuals[:, n:]


def rht_score(case, graph, use_lagged_self=False):
    """Scores by node, one ``fit_count_group`` call per feature count."""
    col = {m: j for j, m in enumerate(case.metrics)}
    full = case.values
    ref_idx, test_idx = window_index_ranges(case)
    lo, hi = ref_idx.start, ref_idx.stop
    test = full[test_idx.start:test_idx.stop]
    nodes = sorted(graph.nodes)
    targets = [col[node] for node in nodes]
    features = [[col[p] for p in graph.parents(node)] for node in nodes]
    if use_lagged_self:
        lag = full.shape[1]
        data = centre(np.hstack([full[lo + 1:hi], full[lo:hi - 1]]),
                      np.hstack([test, full[test_idx.start - 1:test_idx.stop - 1]]))
        features = [f + [lag + j] for f, j in zip(features, targets)]
    else:
        data = centre(full[lo:hi], test)

    groups: dict[int, list[int]] = {}
    for i, f in enumerate(features):
        groups.setdefault(len(f), []).append(i)
    scores = np.empty(len(nodes))
    for members in groups.values():
        _, _, residual_mean, residual_std, deviation = fit_count_group(
            data, [targets[i] for i in members],
            np.array([features[i] for i in members], dtype=np.intp))
        scores[members] = np.abs(deviation - residual_mean[:, None]).max(axis=1) / residual_std
    return dict(zip(nodes, scores.tolist()))
