"""Root cause analysis for metric-monitored service systems.

The package localizes faults in systems observed through per-minute
metrics: a causal graph over the metrics is compiled from architecture
knowledge (or taken as given), each metric is scored by how far it
deviates from a regression on its causal parents, abnormal scores are
adjusted with descendant evidence, and ranked candidates are evaluated
by top-k recall on simulated or labeled datasets.
"""

from .errors import (
    CyclicCallGraph,
    DimensionMismatch,
    EdgeBudgetInfeasible,
    EmptyCaseSet,
    InsufficientData,
    MalformedInput,
    MissingSeries,
    NoEffectiveFault,
    OutputNotEmpty,
    RcakitError,
    UnknownMetaMetric,
    WindowOutOfRange,
)
from .model import (
    Case,
    CausalGraph,
    GroundTruth,
    MetricId,
    Ranking,
    TimeSeries,
    load_case,
    load_graph,
    save_case,
    save_graph,
    window_index_ranges,
)
from .archgraph import (
    ArchitectureSpec,
    MetaMetric,
    MetaMetricDim,
    build_skeleton,
    build_structural_graph,
    load_architecture,
)
from .scoring import (
    ABNORMAL_THRESHOLD,
    SCORER_NAMES,
    ScoreTable,
    descendant_adjust,
    dfs_score,
    nsigma_score,
    rank,
    rht_score,
    run_scorer,
)
from .simulation import (
    FaultType,
    InjectedFault,
    SimulatedDataset,
    WeightedDag,
    case_record,
    classify_fault,
    generate_dag,
    generate_dataset,
    load_dataset,
    save_dataset,
)
from .evaluation import EvalReport, ac_at_k, evaluate, format_table

__version__ = "0.1.0"
