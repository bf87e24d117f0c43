"""Build a causal graph over monitoring metrics from architecture knowledge.

A web service calls a database.  Each service is observed through the four
golden-signal dimensions (traffic, saturation, latency, errors), and each
monitoring metric is labeled with the dimension(s) it measures.  That is
all the compiler needs: no training data, no causal discovery.
"""

from rcakit import (
    ArchitectureSpec,
    MetaMetric,
    MetaMetricDim,
    build_skeleton,
    build_structural_graph,
)

T, S, L, E = (MetaMetricDim.TRAFFIC, MetaMetricDim.SATURATION,
              MetaMetricDim.LATENCY, MetaMetricDim.ERRORS)

# Each service and the services it calls.
services = {"web": ("db",), "db": ()}

# The skeleton wires dimensions: traffic drives everything downstream of it,
# and the database's dimensions stand in for part of the web service's
# resource consumption.
skeleton = build_skeleton(services)
print(f"skeleton: {len(skeleton.nodes)} dimension nodes, {len(skeleton.edges)} edges")
for parent, child in sorted(skeleton.edges, key=lambda e: (str(e[0]), str(e[1]))):
    print(f"  {parent} -> {child}")

# Metric labels, exactly as an operator would write them.  Note the ratio
# metric derived from both traffic dimensions at once.
spec = ArchitectureSpec(
    services=services,
    metric_map={
        "web_qps": {MetaMetric("web", T)},
        "web_cpu": {MetaMetric("web", S)},
        "web_latency": {MetaMetric("web", L)},
        "web_error_rate": {MetaMetric("web", E)},
        "db_qps": {MetaMetric("db", T)},
        "db_cpu": {MetaMetric("db", S)},
        "db_latency": {MetaMetric("db", L)},
        "db_error_rate": {MetaMetric("db", E)},
        "db_access_per_request": {MetaMetric("web", T), MetaMetric("db", T)},
    },
)

graph = build_structural_graph(spec)
print(f"\nstructural graph: {len(graph.nodes)} metrics, {len(graph.edges)} edges")
for metric in graph.topological_order():
    parents = graph.parents(metric)
    shown = ", ".join(parents) if parents else "(root)"
    print(f"  {metric:<24} <- {shown}")
