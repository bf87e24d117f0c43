"""Synthetic benchmark generation.

Systems are drawn as random connected DAGs whose weighted adjacency
matrix drives a first-order vector autoregression: each sample solves
``x = A x + beta * x_prev + noise``, i.e. ``x = W (beta * x_prev + noise)``
with ``W = (I - A)^-1``.  Node 0 is the SLI sink; every other node has a
directed path into it.  Faults shift the noise of a sampled root set for
two consecutive samples, scaled so the expected SLI deviation clears
three reference standard deviations, and are classified by how strongly
each root propagates into the SLI.
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import EdgeBudgetInfeasible, MalformedInput, NoEffectiveFault, OutputNotEmpty
from .model import (
    DEFAULT_T_DELAY,
    DEFAULT_T_REF,
    DEFAULT_T_TEST,
    Case,
    CaseRecord,
    CausalGraph,
    GroundTruth,
    MetricId,
    load_case,
    load_graph,
    read_json,
    restore_read_only,
    save_case,
    save_graph,
)

DEFAULT_BETA = 0.1
DEFAULT_POISSON_RATE = 1.0
#: Largest root-count rate accepted: numpy's Poisson sampler refuses rates
#: above about 9.2e18, where its int64 draws would overflow.
MAX_POISSON_RATE = 1e18
#: Noise standard deviations below this are clipped to keep metrics alive.
MIN_NOISE_STD = 0.01
WEIGHT_LOW, WEIGHT_HIGH = 0.5, 2.0
FAULT_DURATION = 2
#: Scale of the per-root noise-shift magnitude drawn at injection time,
#: before the vector is scaled up to guarantee a three-sigma SLI effect.
ALPHA_SCALE = 3.0


class FaultType(str, Enum):
    WEAK = "Weak"
    MIXED = "Mixed"
    STRONG = "Strong"


def metric_name(index: int, n_node: int) -> MetricId:
    """Zero-padded node name so lexicographic order matches node order."""
    return f"m{index:0{len(str(n_node - 1))}d}"


@dataclass(frozen=True)
class WeightedDag:
    """Weighted adjacency matrix of the simulated system.

    ``A[i, j] != 0`` means node j causes node i with that weight.  The
    nonzero pattern must be acyclic, node 0 must have no children, and
    weight magnitudes must lie in (0.5, 2.0); noise standard deviations
    must be positive and finite.  Construction sets, from one scan of the
    nonzeros, ``graph``: that pattern over the ``metric_name`` names, so
    node ids are indices of ``A``; and ``W``, the read-only propagation
    matrix every case of the graph shares.  Both travel in a pickle.
    """

    A: np.ndarray
    sigma: np.ndarray
    beta: float = DEFAULT_BETA
    graph: CausalGraph = field(init=False, repr=False, compare=False)
    W: np.ndarray = field(init=False, repr=False, compare=False)

    __setstate__ = restore_read_only

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        n = A.shape[0]
        if n == 0:
            raise ValueError("need at least one node")
        if sigma.shape != (n,):
            raise ValueError("sigma must have one entry per node")
        if not (np.isfinite(sigma) & (sigma > 0)).all():
            raise ValueError("noise standard deviations must be positive and finite")
        effects, causes = np.nonzero(A)  # NaN is nonzero, and fails the range check
        if (effects == causes).any():
            raise ValueError("A must have a zero diagonal")
        if (causes == 0).any():
            raise ValueError("node 0 is the SLI sink and may cause nothing")
        nz = np.abs(A[effects, causes])
        if not ((nz > WEIGHT_LOW) & (nz < WEIGHT_HIGH)).all():
            raise ValueError(f"edge weight magnitudes must lie in ({WEIGHT_LOW}, {WEIGHT_HIGH})")
        names = [metric_name(i, n) for i in range(n)]
        edges = [(names[j], names[i]) for i, j in zip(effects.tolist(), causes.tolist())]
        graph = CausalGraph(nodes=names, edges=edges)
        A.flags.writeable = sigma.flags.writeable = False
        vars(self).update(A=A, sigma=sigma, graph=graph)
        W = propagation_matrix(self)
        W.flags.writeable = False
        vars(self)["W"] = W

    @property
    def n(self) -> int:
        return self.A.shape[0]


def propagation_matrix(dag: WeightedDag) -> np.ndarray:
    """W = (I - A)^-1; W[i, j] is how much node i moves per unit of node j.
    Row by row, W = I + A W along ``graph.order``, parents first; einsum keeps
    the sums off BLAS, so the bits do not depend on its thread count."""
    A, graph, W = dag.A, dag.graph, np.eye(dag.n)
    ptr, ids = graph.parent_ptr.tolist(), graph.parent_ids
    for j in graph.order:
        p = ids[ptr[j]:ptr[j + 1]]
        W[j] += np.einsum("i,ij->j", A[j, p], W[p])
    return W


def generate_dag(n_node: int, n_edge: int, rng_seed) -> WeightedDag:
    """Draw a connected DAG with the requested node and edge counts.

    A random tree pointing every node at a lower-indexed one guarantees
    connectivity and a path from every node into the SLI; the remaining
    edges are sampled uniformly over unused (higher -> lower) pairs.
    Weight magnitudes are uniform in (0.5, 2.0) with random sign; noise
    standard deviations are exponential with scale 1, floored at 0.01.
    Edge tries are drawn in batches never longer than the loop will use, so
    the draw equals one scalar call per tree parent and one ``size=2`` call
    per try.
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
    # Edge (i, j), i > j, is the code i * n_node + j; a try whose ends are
    # equal has a diagonal code, in ``used`` from the start.
    codes = (np.arange(1, n_node) * n_node + rng.integers(0, np.arange(1, n_node))).tolist()
    used = {*codes, *range(0, n_node * n_node, n_node + 1)}
    refused = 0  # tries refused since the last edge was added
    while len(codes) < n_edge:
        if refused == 200:
            # Rejection stalled (dense graph); fall back to an explicit draw
            # over the remaining pairs.
            free = sorted(c for i in range(1, n_node)
                          for c in range(i * n_node, i * n_node + i) if c not in used)
            tries = [free[int(rng.integers(0, len(free)))]]
        else:
            # Filling the budget takes m accepted tries and a stall m refused
            # ones, so either ends the loop only at the batch's end.
            m = min(n_edge - len(codes), 200 - refused)
            low, high = np.sort(rng.integers(0, n_node, size=(m, 2)), axis=1).T
            tries = (high * n_node + low).tolist()
        for code in tries:
            if code in used:
                refused += 1
            else:
                codes.append(code)
                used.add(code)
                refused = 0

    magnitudes = rng.uniform(WEIGHT_LOW, WEIGHT_HIGH, size=len(codes))
    signs = rng.integers(0, 2, size=len(codes)) * 2 - 1
    sigma = np.maximum(rng.exponential(1.0, size=n_node), MIN_NOISE_STD)
    A = np.zeros((n_node, n_node))
    i_idx, j_idx = np.divmod(np.array(codes, dtype=np.intp), n_node)
    A[j_idx, i_idx] = signs * magnitudes  # i causes j
    return WeightedDag(A=A, sigma=sigma)


def simulate_matrix(dag: WeightedDag, length: int, rng_seed) -> np.ndarray:
    """Simulate the autoregression; returns a (length, n) matrix."""
    if length < 2:
        raise ValueError("length must be at least 2 samples")
    rng = np.random.default_rng(rng_seed)
    return _propagate(dag, rng.standard_normal((length, dag.n)) * dag.sigma)


def _propagate(dag: WeightedDag, E: np.ndarray) -> np.ndarray:
    """The rows ``x_t = W (beta x_{t-1} + e_t)`` driven by the noise rows
    ``E``, from ``x_{-1} = 0``."""
    W, beta = dag.W, dag.beta
    X = np.empty_like(E)
    x = np.zeros(dag.n)
    for t, e in enumerate(E):
        x = X[t] = W @ (beta * x + e)
    return X


@dataclass(frozen=True)
class InjectedFault:
    """Ground truth of one injected fault; ``alpha`` maps each root-cause
    metric to its noise shift, in sigmas of that metric's noise."""

    alpha: dict[MetricId, float]
    fault_type: FaultType

    @property
    def root_causes(self) -> frozenset[MetricId]:
        return frozenset(self.alpha)


def classify_fault(dag: WeightedDag, sigma_hat: Sequence[float],
                   roots: Sequence[int]) -> FaultType:
    """Classify a fault by each root's signed propagation ratio onto the SLI.

    The ratio for root i is ``W[0, i] * sigma_hat[i] / sigma_hat[0]``: all
    below 1 is Weak, all above 1 is Strong, anything else (straddling
    roots or a ratio of exactly 1) is Mixed.
    """
    sigma_hat = np.asarray(sigma_hat, dtype=float)
    if not (np.isfinite(sigma_hat) & (sigma_hat > 0)).all():
        raise ValueError("sigma_hat must be positive and finite elementwise")
    ratios = np.array([dag.W[0, i] * sigma_hat[i] / sigma_hat[0] for i in sorted(roots)])
    if (ratios < 1.0).all():
        return FaultType.WEAK
    if (ratios > 1.0).all():
        return FaultType.STRONG
    return FaultType.MIXED


def draw_root_count(rng: np.random.Generator, n_node: int,
                    poisson_rate: float = DEFAULT_POISSON_RATE) -> int:
    """Number of root causes: 1 + Poisson, capped at the non-SLI node count."""
    return min(1 + int(rng.poisson(poisson_rate)), n_node - 1)


def apply_noise_shift(dag: WeightedDag, X: np.ndarray, at_index: int,
                      alpha: Mapping[int, float]) -> np.ndarray:
    """Shift the noise of the alpha-keyed nodes by alpha*sigma for two samples.

    The autoregression is linear, so the shift adds a deterministic
    response on top of the original trajectory: rows before ``at_index``
    are returned unchanged (bit for bit), later rows gain the propagated
    deviation.
    """
    T = X.shape[0]
    if not 0 <= at_index <= T - FAULT_DURATION:
        raise ValueError(f"fault at row {at_index} does not fit in {T} samples")
    pulse = np.zeros((T - at_index, dag.n))
    for i, a in alpha.items():
        pulse[:FAULT_DURATION, int(i)] = a * dag.sigma[int(i)]
    out = X.copy()
    out[at_index:] += _propagate(dag, pulse)
    return out


def _sample_fault(dag: WeightedDag, sigma_hat: np.ndarray,
                  rng: np.random.Generator, poisson_rate: float,
                  max_retries: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Draw a root set and alphas whose expected SLI shift clears 3 sigma."""
    if dag.n < 2:
        raise NoEffectiveFault("need at least one non-SLI node to intervene on")
    need = 3.0 * sigma_hat[0]
    for _ in range(max_retries):
        size = draw_root_count(rng, dag.n, poisson_rate)
        roots = np.sort(rng.choice(np.arange(1, dag.n), size=size, replace=False))
        magnitudes = rng.exponential(ALPHA_SCALE, size=size)
        signs = rng.integers(0, 2, size=size) * 2 - 1
        alpha = magnitudes * signs
        effect = float(dag.W[0, roots] @ (alpha * dag.sigma[roots]))
        if abs(effect) <= 1e-12 * max(need, 1.0):
            continue  # no usable propagation onto the SLI; redraw
        alpha *= max(1.0, need / abs(effect))
        return roots, alpha
    raise NoEffectiveFault(
        f"no sampled root set moved the SLI after {max_retries} attempts"
    )


def _check_recipe(t_ref: int, t_delay: int, t_test: int, poisson_rate: float) -> None:
    """ValueError naming the values unless a fault of FAULT_DURATION rows
    fits after a reference window, and the root-count rate can be sampled."""
    if not FAULT_DURATION - 1 <= t_delay < t_test <= t_ref:
        raise ValueError(f"simulation needs {FAULT_DURATION - 1} <= t_delay < t_test <= t_ref, "
                         f"got t_ref={t_ref}, t_delay={t_delay}, t_test={t_test}")
    if not 0 <= poisson_rate <= MAX_POISSON_RATE:
        raise ValueError(f"poisson_rate must lie in [0, {MAX_POISSON_RATE:g}], got {poisson_rate}")


class CaseRecipe(NamedTuple):
    """A case not drawn yet: what ``generate_case`` needs to draw it.  The
    stream fixes the draw, so it is the same wherever it runs."""

    case_id: str
    dag: WeightedDag
    stream: np.random.SeedSequence
    t_ref: int
    t_delay: int
    t_test: int
    poisson_rate: float


#: A dataset's case: a record, a recipe not drawn yet, or a case directory
#: not read yet.  ``case_record`` makes any of them a record.
CaseEntry = Union[CaseRecord, CaseRecipe, Path]


@dataclass(frozen=True)
class GraphRecord:
    """One simulated system and its cases (see CaseEntry)."""

    graph_id: str
    graph: CausalGraph
    cases: tuple[CaseEntry, ...]
    dag: Optional[WeightedDag] = None

    def __post_init__(self):
        object.__setattr__(self, "cases", tuple(self.cases))


@dataclass(frozen=True)
class SimulatedDataset:
    """Generated graphs and labeled cases, plus the generation recipe."""

    graphs: tuple[GraphRecord, ...]
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "graphs", tuple(self.graphs))

    def n_cases(self) -> int:
        return sum(len(g.cases) for g in self.graphs)


def generate_case(dag: WeightedDag, rng_seed,
                  t_ref: int = DEFAULT_T_REF,
                  t_delay: int = DEFAULT_T_DELAY,
                  t_test: int = DEFAULT_T_TEST,
                  poisson_rate: float = DEFAULT_POISSON_RATE) -> tuple[Case, InjectedFault]:
    """Simulate one faulty case: fresh series with a fault at detect time.

    The root set excludes the SLI; alphas draw an exponential magnitude
    with random sign and the whole vector is scaled up just enough that
    the expected SLI deviation reaches three reference standard
    deviations.  Rows before the fault are the unfaulted simulation.  The
    recipe is checked first, by generate_dataset's rule.
    """
    _check_recipe(t_ref, t_delay, t_test, poisson_rate)
    rng = np.random.default_rng(rng_seed)
    X = simulate_matrix(dag, t_ref + t_delay + 1, rng)
    sigma_hat = np.maximum(X[:t_ref - t_test + 1].std(axis=0), 1e-12)
    roots, alpha = _sample_fault(dag, sigma_hat, rng, poisson_rate)
    faulty = apply_noise_shift(dag, X, t_ref, dict(zip(roots, alpha)))  # starts at detection
    names = dag.graph.names
    case = Case(metrics=names, values=faulty, start_time=0, detect_time=t_ref, sli=names[0],
                t_ref=t_ref, t_delay=t_delay, t_test=t_test)
    fault = InjectedFault(alpha={names[i]: float(a) for i, a in zip(roots, alpha)},
                          fault_type=classify_fault(dag, sigma_hat, roots))
    return case, fault


def _pool_map(fn: Callable, tasks: Sequence, jobs: Optional[int]) -> list:
    """``[fn(t) for t in tasks]``, on ``min(jobs, len(tasks))`` worker processes when
    that is above 1, in chunks of up to 8 tasks and at most a quarter of a worker's share
    (rounded up), so that no worker idles in a small pool.  The first task to fail, in
    task order, raises here; the pool shuts down either way.  It starts by the platform's
    default method (fork on Linux, all workers at once) and is imported here: a serial
    command never loads multiprocessing."""
    if (workers := min(jobs or 1, len(tasks))) <= 1:
        return [fn(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        return list(pool.map(fn, tasks, chunksize=min(8, math.ceil(len(tasks) / (4 * workers)))))
    finally:
        pool.shutdown(cancel_futures=True)


def case_record(entry: CaseEntry) -> CaseRecord:
    """The record a dataset case stands for: the record itself, its recipe
    drawn, or its directory read, which must carry root causes."""
    if isinstance(entry, CaseRecord):
        return entry
    if isinstance(entry, CaseRecipe):
        case, fault = generate_case(
            entry.dag, np.random.default_rng(entry.stream), t_ref=entry.t_ref,
            t_delay=entry.t_delay, t_test=entry.t_test, poisson_rate=entry.poisson_rate,
        )
        return CaseRecord(entry.case_id, case, GroundTruth(fault.root_causes),
                          fault.fault_type.value)
    record = load_case(entry)
    if record.truth is None:
        raise MalformedInput(f"{entry}/case.json: dataset cases must carry root_causes")
    return record


def case_id(entry: CaseEntry) -> str:
    """A dataset case's id, which names its directory."""
    return entry.name if isinstance(entry, Path) else entry.case_id


def generate_dataset(
    n_node: int,
    n_edge: int,
    n_graphs: int = 10,
    cases_per_graph: int = 100,
    rng_seed: int = 0,
    t_ref: int = DEFAULT_T_REF,
    t_delay: int = DEFAULT_T_DELAY,
    t_test: int = DEFAULT_T_TEST,
    poisson_rate: float = DEFAULT_POISSON_RATE,
) -> SimulatedDataset:
    """Draw ``n_graphs`` systems with ``cases_per_graph`` faulty cases each.

    Graphs are drawn here, each dag with its graph and ``W``, and shared
    across their cases; each case is a ``CaseRecipe``, drawn by
    ``case_record`` where it is used (``save_dataset`` and ``evaluate`` do
    so in the task that writes or scores it) without solving ``W`` again.
    Sub-streams are split off the master seed per graph and per case, so
    any case is reproducible in isolation and the same on any worker.  The
    windows and the rate are checked here, before anything is drawn or written.
    """
    _check_recipe(t_ref, t_delay, t_test, poisson_rate)
    root_seq = np.random.SeedSequence(rng_seed)
    graph_width = len(str(max(n_graphs - 1, 0)))
    case_width = len(str(max(cases_per_graph - 1, 0)))
    graphs = []
    for g, graph_seq in enumerate(root_seq.spawn(n_graphs)):
        streams = graph_seq.spawn(cases_per_graph + 1)
        dag = generate_dag(n_node, n_edge, np.random.default_rng(streams[0]))
        recipes = [CaseRecipe(f"c{c:0{case_width}d}", dag, streams[c + 1],
                              t_ref, t_delay, t_test, poisson_rate) for c in range(cases_per_graph)]
        graphs.append(GraphRecord(f"g{g:0{graph_width}d}", dag.graph, recipes, dag))
    params = {
        "n_node": n_node, "n_edge": n_edge, "n_graphs": n_graphs,
        "cases_per_graph": cases_per_graph, "seed": rng_seed,
        "t_ref": t_ref, "t_delay": t_delay, "t_test": t_test,
        "poisson_rate": poisson_rate, "beta": DEFAULT_BETA,
    }
    return SimulatedDataset(graphs=graphs, params=params)


def require_empty_dir(out_dir) -> None:
    """Refuse an existing non-empty directory, so no stale case survives."""
    out_dir = Path(out_dir)
    if out_dir.is_dir() and any(out_dir.iterdir()):
        raise OutputNotEmpty(f"{out_dir} is not empty; write the dataset to a new directory")


def _save_record(task) -> None:
    case_dir, entry = task
    record = case_record(entry)
    save_case(case_dir, record.case, record.truth, record.fault_type)


def save_dataset(dataset: SimulatedDataset, out_dir, jobs: Optional[int] = None) -> None:
    """Write the on-disk layout: manifest.json, per-graph graph.json, cases.

    ``out_dir`` must be absent or empty.  graph.json holds the topology
    only; generate_dataset on the manifest's recipe redraws the weights.
    ``jobs`` > 1 writes the cases on a process pool, to the same bytes.
    A case that is a recipe is drawn by the task that writes it, so
    ``simulate`` generates and writes in one pass.  After the last case the
    tree staged beside an absent ``out_dir`` is renamed onto it, and one
    staged in an existing ``out_dir`` (a working directory stays itself)
    moves up.  A failure or an interrupt leaves ``out_dir`` as it was.
    """
    require_empty_dir(out_dir)
    out_dir = Path(out_dir).resolve()
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    inside, moved = out_dir.is_dir(), []
    holder = Path(tempfile.mkdtemp(prefix=f".{out_dir.name}.",
                                   dir=out_dir if inside else out_dir.parent))
    try:
        tree = holder / out_dir.name
        tree.mkdir()  # the mode mkdir gives, where mkdtemp's is private
        (tree / "manifest.json").write_text(
            json.dumps(dataset.params, indent=2, sort_keys=True, allow_nan=False) + "\n")
        tasks = []
        for record in dataset.graphs:
            graph_dir = tree / record.graph_id
            graph_dir.mkdir(exist_ok=True)
            save_graph(record.graph, graph_dir / "graph.json")
            tasks += [(graph_dir / case_id(entry), entry) for entry in record.cases]
        _pool_map(_save_record, tasks, jobs)
        if inside:
            for entry in sorted(tree.iterdir()):
                moved.append(out_dir / entry.name)
                entry.rename(moved[-1])
        else:
            tree.rename(out_dir)
    except BaseException:
        for path in filter(Path.exists, moved):  # back into the tree, removed below
            path.rename(tree / path.name)
        raise
    finally:
        shutil.rmtree(holder, ignore_errors=True)


def load_dataset(directory) -> SimulatedDataset:
    """Read a dataset directory written by save_dataset.

    Graphs load as topology only, ``dag`` None; weights that older
    graph.json files carry are ignored.  Each case is its directory, read
    by ``case_record`` where it is used (``evaluate`` does so in the task
    that scores it), so a malformed case is reported there.
    """
    directory = Path(directory)
    manifest = directory / "manifest.json"
    params = read_json(manifest) if manifest.exists() else {}
    graph_dirs = sorted(p for p in directory.iterdir() if (p / "graph.json").exists())
    graphs = [GraphRecord(d.name, load_graph(d / "graph.json"),
                          sorted(p for p in d.iterdir() if p.is_dir())) for d in graph_dirs]
    return SimulatedDataset(graphs=graphs, params=params)
