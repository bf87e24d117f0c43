"""Seeded inputs of the ``triage-arch`` workload.

An architecture is a call DAG of services, each observed through several
metrics labelled with the golden-signal dimensions they measure.  Incident
cases come from the benchmark's own linear-Gaussian model on the compiled
metric graph: every metric is a weighted sum of its parents plus Gaussian
noise, and one root metric gets a persistent noise shift shortly before
detection.  Nothing here calls into rcakit except ``save_case``, the
program's own writer, so that cases land on disk in the format ``analyze``
reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np

#: Services per call-graph layer.  The shape is the same for every seed, so
#: that the work per call and the parent counts stay alike: svc00, the
#: front end, calls all of layer 1; the services of every later layer are
#: dealt out evenly among the callers in the layer above; and EXTRA_CALLS
#: more call edges join a service to a caller in any layer above it.
LAYERS = (1, 3, 6, 10, 10)
EXTRA_CALLS = 6
#: Every service has one metric per dimension plus EXTRA_METRICS metrics of
#: random single dimensions; TWO_DIM_SERVICES services also have a metric
#: spanning two of their dimensions.
EXTRA_METRICS = 2
TWO_DIM_SERVICES = 6
DIMS = ("traffic", "saturation", "latency", "errors")
BASE_NAMES = {"traffic": "qps", "saturation": "cpu", "latency": "latency_p99",
              "errors": "error_rate"}

#: Architectures per run, and incident cases per architecture.
N_ARCHITECTURES = 12
N_CASES = 12
T_REF, T_DELAY, T_TEST = 120, 5, 10
#: The root's noise shifts FAULT_LEAD samples before detection and stays
#: shifted to the end of the case; its size is ALPHA sigmas of that noise.
FAULT_LEAD = 2
ALPHA = (2.0, 8.0)
START_TIME = 28_000_000  # epoch minutes, only for realistic timestamps


def sli_metric() -> str:
    return f"svc00.{BASE_NAMES['latency']}"


def architecture(seed: int, index: int = 0) -> dict:
    """Architecture ``index`` of a seed, as the YAML payload ``rcakit graph``
    reads."""
    rng = np.random.default_rng([seed, index, 1])
    names = [f"svc{i:02d}" for i in range(sum(LAYERS))]
    callees: dict[str, set[str]] = {name: set() for name in names}
    first = np.cumsum((0,) + LAYERS)  # index of each layer's first service
    for layer in range(1, len(LAYERS)):
        callers = rng.permutation(np.arange(first[layer - 1], first[layer]))
        for n, i in enumerate(rng.permutation(np.arange(first[layer], first[layer + 1]))):
            callees[names[callers[n % len(callers)]]].add(names[i])
    extra = 0
    while extra < EXTRA_CALLS:
        i = int(rng.integers(first[1], len(names)))
        caller = names[int(rng.integers(0, first[np.searchsorted(first, i, side="right") - 1]))]
        if names[i] not in callees[caller]:
            callees[caller].add(names[i])
            extra += 1
    two_dim = set(rng.choice(len(names), size=TWO_DIM_SERVICES, replace=False).tolist())
    metrics = []
    for s, name in enumerate(names):
        for dim in DIMS:
            metrics.append({"name": f"{name}.{BASE_NAMES[dim]}",
                            "maps_to": [{"service": name, "dim": dim}]})
        for k in range(EXTRA_METRICS):
            dim = DIMS[int(rng.integers(0, 4))]
            metrics.append({"name": f"{name}.{dim}_{k}",
                            "maps_to": [{"service": name, "dim": dim}]})
        if s in two_dim:
            pair = sorted(rng.choice(4, size=2, replace=False))
            metrics.append({"name": f"{name}.{DIMS[pair[0]]}_{DIMS[pair[1]]}",
                            "maps_to": [{"service": name, "dim": DIMS[d]} for d in pair]})
    services = [{"name": name, "callees": sorted(callees[name])} for name in names]
    return {"services": services, "metrics": metrics}


@dataclass(frozen=True)
class LinearGaussian:
    """x = offset + B x + sigma * noise over the metrics in ``order``."""

    order: tuple[str, ...]
    parents: tuple[np.ndarray, ...]   # column indices into ``order``
    weights: tuple[np.ndarray, ...]
    sigma: np.ndarray
    offset: np.ndarray

    def sample(self, rng: np.random.Generator, length: int, shift: np.ndarray) -> np.ndarray:
        """A (length, n) sample; ``shift`` (length, n) is added to the noise."""
        noise = rng.standard_normal((length, len(self.order))) * self.sigma + shift
        X = np.empty_like(noise)
        for j in range(len(self.order)):
            X[:, j] = self.offset[j] + noise[:, j]
            if self.parents[j].size:
                X[:, j] += X[:, self.parents[j]] @ self.weights[j]
        return X


def case_model(graph_json: dict, seed: int, index: int = 0) -> LinearGaussian:
    """Draw weights on the compiled graph, scaled so every metric's parent
    contribution has unit variance and noise std lies in [0.5, 2]."""
    rng = np.random.default_rng([seed, index, 2])
    g = nx.DiGraph()
    g.add_nodes_from(graph_json["nodes"])
    g.add_edges_from(tuple(e) for e in graph_json["edges"])
    order = tuple(nx.lexicographical_topological_sort(g))
    index = {m: j for j, m in enumerate(order)}
    n = len(order)
    sigma = rng.uniform(0.5, 2.0, size=n)
    cov = np.zeros((n, n))
    parents, weights = [], []
    for j, metric in enumerate(order):
        cols = np.array(sorted(index[p] for p in g.predecessors(metric)), dtype=int)
        w = rng.uniform(0.5, 2.0, size=cols.size) * rng.choice((-1.0, 1.0), size=cols.size)
        if cols.size:
            w /= np.sqrt(w @ cov[np.ix_(cols, cols)] @ w)
            cov[j, :] = w @ cov[cols, :]
            cov[:, j] = cov[j, :]
        cov[j, j] = (w @ cov[np.ix_(cols, cols)] @ w if cols.size else 0.0) + sigma[j] ** 2
        parents.append(cols)
        weights.append(w)
    offset = rng.uniform(0.0, 100.0, size=n)
    return LinearGaussian(order, tuple(parents), tuple(weights), sigma, offset)


@dataclass(frozen=True)
class IncidentCase:
    case_id: str
    root: str
    values: np.ndarray          # (T_REF + T_DELAY + 1, n), columns in model order


def incident_cases(model: LinearGaussian, graph_json: dict, seed: int,
                   index: int = 0) -> list[IncidentCase]:
    """Labelled cases, each with one root among the SLI's ancestors."""
    rng = np.random.default_rng([seed, index, 3])
    g = nx.DiGraph(tuple(e) for e in graph_json["edges"])
    candidates = sorted(nx.ancestors(g, sli_metric()))
    index = {m: j for j, m in enumerate(model.order)}
    length = T_REF + T_DELAY + 1
    cases = []
    for c in range(N_CASES):
        root = candidates[int(rng.integers(0, len(candidates)))]
        alpha = rng.uniform(*ALPHA) * rng.choice((-1.0, 1.0))
        shift = np.zeros((length, len(model.order)))
        shift[T_REF - FAULT_LEAD:, index[root]] = alpha * model.sigma[index[root]]
        cases.append(IncidentCase(f"c{c:02d}", root, model.sample(rng, length, shift)))
    return cases


def write_cases(cases: list[IncidentCase], model: LinearGaussian, out_dir) -> None:
    """Write each case with rcakit's own case writer."""
    from rcakit.model import Case, GroundTruth, TimeSeries, save_case

    for case in cases:
        series = {
            m: TimeSeries(metric=m, start_time=START_TIME, values=case.values[:, j])
            for j, m in enumerate(model.order)
        }
        save_case(
            out_dir / case.case_id,
            Case(series=series, detect_time=START_TIME + T_REF, sli=sli_metric(),
                 t_ref=T_REF, t_delay=T_DELAY, t_test=T_TEST),
            GroundTruth(frozenset({case.root})),
        )
