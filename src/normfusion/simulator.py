"""Two-engine logical-time scheduler for block operation graphs.

Element-wise and collective work runs on the vector engine, matrix
multiplications on the matrix engine; the two proceed concurrently but
each engine executes one operation at a time. Latencies are whole cycles
from a parameterized cost model. This is logical time, not wall clock: the
latency-hiding claim is isolated from host noise and every run is
bit-reproducible.

List scheduling: nodes start as soon as their dependencies (plus
cross-engine sync) and their engine allow, in ascending id order, which
every edge must follow (lower id to higher, as `build_graph` numbers
them). Fused sites have width-2 parallelism, where this greedy policy is
optimal (tests check it against a brute-force scheduler on small graphs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

from .block import _KIND_ENGINES, SITES, Node, OpGraph
from .tensor import _integer, _number

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
    sync_overhead cycles. The two rates are positive and the other three
    fields non-negative, each by `tensor._number`.
    """

    matrix_macs_per_cycle: float
    vector_elems_per_cycle: float
    collective_alpha: float = 0.0
    collective_beta: float = 0.0
    sync_overhead: float = 0.0

    def __post_init__(self):
        for name, rate in _COST_FIELDS:
            object.__setattr__(self, name, _number(getattr(self, name), name, positive=rate))


# each CostModel field's name, and whether it is a rate, which must be positive
_COST_FIELDS = tuple((f.name, f.name.endswith("_per_cycle")) for f in fields(CostModel))


class TimelineEntry(NamedTuple):
    """One scheduled node: an immutable named tuple of its id, engine and start and end cycles.

    As a tuple, an entry iterates, unpacks, orders and compares equal like
    the tuple of its fields: `TimelineEntry(0, "vector", 0, 5) == (0,
    "vector", 0, 5)`. Assigning a field raises AttributeError. It checks
    nothing: `schedule` builds entries from the nodes it has checked.
    """

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
    """Whole-cycle latency of one node under the cost model, which rejects a node it cannot cost.

    matmul:      MACs / matrix rate
    elementwise: elements / vector rate
    collective:  alpha + beta * ceil(log2 n) + n / vector rate
    The sum is rounded up to whole cycles. Work that is not a positive
    integer (a bool or a float is not), then an unknown kind, raise a
    ValueError, and so does a latency that overflows float64.
    """
    kind, work = node.kind, node.work
    if type(work) is not int and (work := _integer(work)) is None:  # a plain int, the common case, costs one check
        raise ValueError(f"node work must be an integer, got {node.work!r}")
    if work <= 0:
        raise ValueError(f"node work must be positive, got {work}")
    try:  # the cost model is finite, but a node's latency may not be
        if kind == "matmul":
            return math.ceil(work / cm.matrix_macs_per_cycle)
        if kind == "elementwise":
            return math.ceil(work / cm.vector_elems_per_cycle)
        if kind == "collective":
            tree_levels = math.ceil(math.log2(work)) if work > 1 else 0
            return math.ceil(cm.collective_alpha + cm.collective_beta * tree_levels + work / cm.vector_elems_per_cycle)
    except OverflowError:
        raise ValueError(f"node {node.id} ({node.name}): its latency overflows float64 under this cost model") from None
    raise ValueError(f"unknown node kind {kind!r}")


def schedule(graph: OpGraph, cm: CostModel) -> Timeline:
    """List-schedule the graph on the two engines.

    Nodes run in ascending id order. Each starts at the max of its
    engine's free time and its dependencies' ends, plus sync_overhead on
    cross-engine edges. Every node is checked here, its id kept as a plain
    int: a ValueError names a node `node_latency` rejects, an id that is
    not an integer (a bool is not, so it never aliases id 1) or repeats,
    an empty graph, an edge with an end that is not an integer by the same
    rule, an edge naming an absent node and an edge that does not run
    from a lower id to a higher one, as every cycle has.
    """
    nodes: dict[int, Node] = {}
    for node in graph.nodes:
        if type(nid := node.id) is not int and (nid := _integer(nid)) is None:  # a plain int costs one check
            raise ValueError(f"node id must be an integer, got {node.id!r}")
        if nid in nodes:
            raise ValueError(f"node id {nid} appears more than once")
        nodes[nid] = node
    if not nodes:
        raise ValueError("the graph has no nodes")
    preds: dict[int, list[int]] = {nid: [] for nid in nodes}
    for a, b in graph.edges:
        if type(a) is not int or type(b) is not int:  # a plain int pair, the common case, costs two checks
            if None in (ends := (_integer(a), _integer(b))):
                raise ValueError(f"edge ({a!r}, {b!r}): node ids must be integers")
            a, b = ends
        if a not in preds or b not in preds:
            raise ValueError(f"edge ({a}, {b}) names a node that is not in the graph")
        if a >= b:
            raise ValueError(f"edge ({a}, {b}) does not run from a lower id to a higher one; a cycle needs such an edge")
        preds[b].append(a)

    sync = math.ceil(cm.sync_overhead)
    engine_free = {"vector": 0, "matrix": 0}
    scheduled: dict[int, TimelineEntry] = {}  # id -> its entry, which holds its engine and end; in schedule order
    new_entry = tuple.__new__  # an entry checks nothing, so its fields go straight into the tuple
    for nid, node in sorted(nodes.items()):  # ids are unique, so no two Nodes are compared
        latency = node_latency(node, cm)  # which rejects a kind with no engine
        engine = _KIND_ENGINES[node.kind]
        start = engine_free[engine]
        for p in preds[nid]:
            _, p_engine, _, ready = scheduled[p]
            if p_engine != engine:
                ready += sync
            if ready > start:
                start = ready
        engine_free[engine] = end = start + latency
        scheduled[nid] = new_entry(TimelineEntry, (nid, engine, start, end))
    # a node starts once its engine is free, so each engine is free from the latest end on it
    return Timeline(entries=tuple(scheduled.values()), total=max(engine_free.values()))


def _site_spans(graph: OpGraph, timeline: Timeline) -> list[int]:
    """Each fusion site's span in `graph`'s timeline, in `SITES` order: its nodes' latest end less their earliest start.

    One pass over the entries, each placed by its node's id, whatever the
    order of the graph's node tuple. A site with no node raises.
    """
    site_of = {n.id: n.site for n in graph.nodes}
    bounds: dict[str | None, list[int]] = {}  # site -> [earliest start, latest end]
    for nid, _, start, end in timeline.entries:
        b = bounds.get(site := site_of[nid])
        if b is None:
            bounds[site] = [start, end]
        else:
            if start < b[0]:
                b[0] = start
            if end > b[1]:
                b[1] = end
    spans = []
    for site in SITES:
        if (b := bounds.get(site)) is None:
            raise ValueError(f"the {'fused' if graph.fused else 'conventional'} graph has no node of site {site!r}")
        spans.append(b[1] - b[0])
    return spans


def compare(graph_conv: OpGraph, graph_fused: OpGraph, cm: CostModel) -> LatencyReport:
    """Schedule both graphs and quantify the latency hidden at each site.

    A site's span in a timeline runs from the earliest start to the latest
    end of its nodes, and its hidden cycles are its conventional span less
    its fused span, both read from the two full-graph timelines. In a graph
    from `build_graph`, each site's nodes hold a contiguous id range that
    meets the rest of the graph through one entry node and one exit node,
    and every earlier node has ended when the entry node starts; so the
    site runs as it would alone, and its span is the makespan of its
    subgraph scheduled in isolation. That is where the hand-checkable law
    `hidden = min(collective, overlapped matmul) - scale/sync cost` lives.
    The sites' savings need not add up to the whole saving: the headline
    speedup uses the full-graph makespans.
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
    savings = tuple(SiteSaving(site=site, hidden_cycles=conv - fused) for site, conv, fused
                    in zip(SITES, _site_spans(graph_conv, conv_timeline), _site_spans(graph_fused, fused_timeline)))

    speedup = 100.0 * (1.0 - fused_total / conv_total)
    return LatencyReport(
        conventional_total=conv_total,
        fused_total=fused_total,
        per_site_savings=savings,
        speedup_percent=speedup,
        conventional_timeline=conv_timeline,
        fused_timeline=fused_timeline,
    )
