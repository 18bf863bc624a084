"""Two-engine logical-time scheduler for block operation graphs.

Element-wise and collective work runs on the vector engine, matrix
multiplications on the matrix engine; the two proceed concurrently but
each engine executes one operation at a time. Latencies are whole cycles
from a parameterized cost model. This is logical time, not wall clock: the
latency-hiding claim is isolated from host noise and every run is
bit-reproducible.

Scheduling is plain list scheduling: nodes start as soon as their
dependencies (plus cross-engine sync) and their engine allow, processed
in topological order with ascending-id tie-break. Fused sites have
width-2 parallelism, for which this greedy policy is optimal (the test
suite checks it against a brute-force scheduler on small graphs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .block import SITES, Node, OpGraph, site_subgraph

__all__ = [
    "CostModel",
    "TimelineEntry",
    "Timeline",
    "SiteSaving",
    "LatencyReport",
    "node_latency",
    "schedule",
    "compare",
]


@dataclass(frozen=True)
class CostModel:
    """Per-engine throughputs and collective-latency parameters.

    Collectives cost alpha cycles of fixed startup, beta cycles per
    binary-tree combining level, plus a linear read of the aggregated
    elements at the vector rate. Cross-engine dependency edges pay
    sync_overhead cycles.
    """

    matrix_macs_per_cycle: float
    vector_elems_per_cycle: float
    collective_alpha: float = 0.0
    collective_beta: float = 0.0
    sync_overhead: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.matrix_macs_per_cycle) and self.matrix_macs_per_cycle > 0):
            raise ValueError("matrix_macs_per_cycle must be positive and finite")
        if not (math.isfinite(self.vector_elems_per_cycle) and self.vector_elems_per_cycle > 0):
            raise ValueError("vector_elems_per_cycle must be positive and finite")
        for name in ("collective_alpha", "collective_beta", "sync_overhead"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be non-negative and finite, got {v}")


@dataclass(frozen=True)
class TimelineEntry:
    node_id: int
    engine: str
    start: int
    end: int


@dataclass(frozen=True)
class Timeline:
    entries: tuple[TimelineEntry, ...]
    total: int


@dataclass(frozen=True)
class SiteSaving:
    site: str
    hidden_cycles: int


@dataclass(frozen=True)
class LatencyReport:
    """Conventional vs fused makespans for one block, and the two full-graph timelines.

    fused_total <= conventional_total (and hence a non-negative speedup)
    holds whenever the collective startup dominates the deferred-scale
    cost, which any cost model worth simulating satisfies; an adversarial
    model can invert it and is reported honestly.
    """

    conventional_total: int
    fused_total: int
    per_site_savings: tuple[SiteSaving, ...]
    speedup_percent: float
    conventional_timeline: Timeline
    fused_timeline: Timeline


def node_latency(node: Node, cm: CostModel) -> int:
    """Whole-cycle latency of one node under the cost model.

    matmul:      MACs / matrix rate
    elementwise: elements / vector rate
    collective:  alpha + beta * ceil(log2 n) + n / vector rate
    The sum is rounded up to whole cycles. `Node` has already rejected
    any other kind and non-positive work.
    """
    if node.kind == "matmul":
        raw = node.work / cm.matrix_macs_per_cycle
    elif node.kind == "elementwise":
        raw = node.work / cm.vector_elems_per_cycle
    else:
        tree_levels = math.ceil(math.log2(node.work)) if node.work > 1 else 0
        raw = (
            cm.collective_alpha
            + cm.collective_beta * tree_levels
            + node.work / cm.vector_elems_per_cycle
        )
    return math.ceil(raw)


def schedule(graph: OpGraph, cm: CostModel) -> Timeline:
    """List-schedule the graph on the two engines.

    Nodes are processed in topological order (ready set, ascending-id
    tie-break). Each starts at the max of its engine's free time and its
    dependencies' ends, plus sync_overhead on cross-engine edges. Raises
    on cyclic graphs. Fully deterministic.
    """
    nodes = {n.id: n for n in graph.nodes}
    preds: dict[int, list[int]] = {nid: [] for nid in nodes}
    succs: dict[int, list[int]] = {nid: [] for nid in nodes}
    for a, b in graph.edges:
        preds[b].append(a)
        succs[a].append(b)

    sync = math.ceil(cm.sync_overhead)
    indeg = {nid: len(ps) for nid, ps in preds.items()}
    ready = sorted(nid for nid, d in indeg.items() if d == 0)
    engine_free = {"vector": 0, "matrix": 0}
    finish: dict[int, int] = {}
    entries: list[TimelineEntry] = []

    while ready:
        nid = ready.pop(0)
        node = nodes[nid]
        dep_ready = 0
        for p in preds[nid]:
            arrival = finish[p] + (sync if nodes[p].engine != node.engine else 0)
            dep_ready = max(dep_ready, arrival)
        start = max(engine_free[node.engine], dep_ready)
        end = start + node_latency(node, cm)
        engine_free[node.engine] = end
        finish[nid] = end
        entries.append(TimelineEntry(node_id=nid, engine=node.engine, start=start, end=end))
        for s in succs[nid]:
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
        ready.sort()

    if len(entries) != len(nodes):
        raise ValueError("operation graph contains a cycle")
    return Timeline(entries=tuple(entries), total=max(e.end for e in entries))


def compare(graph_conv: OpGraph, graph_fused: OpGraph, cm: CostModel) -> LatencyReport:
    """Schedule both graphs and quantify the latency hidden at each site.

    Per-site savings are the makespan differences of the two site
    subgraphs scheduled in isolation, which is where the hand-checkable
    law `hidden = min(collective, overlapped matmul) - scale/sync cost`
    lives; the headline speedup uses the full-graph makespans.
    """
    if graph_conv.fused:
        raise ValueError("graph_conv must be a conventional graph")
    if not graph_fused.fused:
        raise ValueError("graph_fused must be a fused graph")
    if graph_conv.config != graph_fused.config:
        raise ValueError("graphs were built from different block configs")

    conv_timeline = schedule(graph_conv, cm)
    fused_timeline = schedule(graph_fused, cm)
    conv_total, fused_total = conv_timeline.total, fused_timeline.total
    savings = []
    for site in SITES:
        conv_site = schedule(site_subgraph(graph_conv, site), cm).total
        fused_site = schedule(site_subgraph(graph_fused, site), cm).total
        savings.append(SiteSaving(site=site, hidden_cycles=conv_site - fused_site))

    speedup = 100.0 * (1.0 - fused_total / conv_total)
    return LatencyReport(
        conventional_total=conv_total,
        fused_total=fused_total,
        per_site_savings=tuple(savings),
        speedup_percent=speedup,
        conventional_timeline=conv_timeline,
        fused_timeline=fused_timeline,
    )
