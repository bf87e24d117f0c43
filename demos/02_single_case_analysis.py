"""Localize an injected fault in one simulated incident.

We simulate a 30-metric system for about two hours, shift the noise of
one or more randomly chosen metrics for two minutes, and then compare
three views of the incident: plain z-scores, regression residual scores
conditioned on causal parents, and the latter with descendant adjustment.
"""

from rcakit import GroundTruth, run_scorer
from rcakit.simulation import generate_case, generate_dag

rng_seed = 42
dag = generate_dag(n_node=30, n_edge=60, rng_seed=rng_seed)
graph = dag.graph

# Two hours of per-minute history plus five minutes after detection; the
# fault starts at detection time, minute 120.
case, fault = generate_case(dag, rng_seed=rng_seed + 1)
truth = GroundTruth(fault.root_causes)
print(f"injected a {fault.fault_type.value} fault at minute {case.detect_time}")
print(f"true root causes: {sorted(truth.root_causes)}")
print(f"noise shifts:     { {m: round(a, 2) for m, a in fault.alpha.items()} }")

for scorer in ("nsigma", "rht", "circa"):
    table, ranking = run_scorer(scorer, case, graph)
    top = ranking[:5]
    hits = [m for m, _ in top if m in truth.root_causes]
    print(f"\n{scorer}: top-5 -> {[f'{m}:{s:.1f}' for m, s in top]}")
    print(f"   root causes in top-5: {hits or 'none'}")

# The regression view explains away metrics that merely follow their
# parents; descendant adjustment then promotes causes whose effects are
# screaming while they themselves only just cleared the threshold.
table, ranking = run_scorer("circa", case, graph)
first = ranking[0][0]
print(f"\nbest candidate: {first} "
      f"(raw {table.raw[first]:.1f}, adjusted {table.adjusted[first]:.1f}) "
      f"{'CORRECT' if first in truth.root_causes else 'not a labeled cause'}")
