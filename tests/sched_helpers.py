"""Shared scheduling oracles, site subgraphs and copy round trips for the simulator, block and acceptance tests."""

import copy
import itertools
import math
import pickle

from normfusion.block import OpGraph
from normfusion.simulator import Timeline, TimelineEntry, node_latency


def brute_force_makespan(graph, cm):
    """Best makespan over every dependency-respecting ordering.

    Each ordering is placed with the same greedy rule the list scheduler
    uses; only the order varies. Intended for graphs of <= 8 nodes.
    """
    nodes = {n.id: n for n in graph.nodes}
    preds = {n.id: [] for n in graph.nodes}
    for a, b in graph.edges:
        preds[b].append(a)
    sync = math.ceil(cm.sync_overhead)
    best = None
    for perm in itertools.permutations(nodes):
        pos = {nid: i for i, nid in enumerate(perm)}
        if any(pos[a] > pos[b] for a, b in graph.edges):
            continue
        engine_free = {"vector": 0, "matrix": 0}
        finish = {}
        for nid in perm:
            node = nodes[nid]
            dep = max(
                (finish[p] + (sync if nodes[p].engine != node.engine else 0) for p in preds[nid]),
                default=0,
            )
            start = max(engine_free[node.engine], dep)
            finish[nid] = start + node_latency(node, cm)
            engine_free[node.engine] = finish[nid]
        makespan = max(finish.values())
        best = makespan if best is None else min(best, makespan)
    return best


def kahn_schedule(graph, cm):
    """The list schedule in Kahn's topological order, with an ascending-id tie-break.

    A ready set of nodes whose predecessors are all done; the smallest id
    runs next. It accepts any acyclic graph, whatever its numbering, and
    serves as the reference `schedule` must equal on id-ordered graphs.
    """
    nodes = {n.id: n for n in graph.nodes}
    preds = {nid: [] for nid in nodes}
    succs = {nid: [] for nid in nodes}
    for a, b in graph.edges:
        preds[b].append(a)
        succs[a].append(b)
    sync = math.ceil(cm.sync_overhead)
    indeg = {nid: len(ps) for nid, ps in preds.items()}
    ready = sorted(nid for nid, d in indeg.items() if d == 0)
    engine_free = {"vector": 0, "matrix": 0}
    finish = {}
    entries = []
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


def check_timeline_invariants(graph, timeline, cm):
    """Engine exclusivity and dependency (+sync) respect."""
    by_id = {e.node_id: e for e in timeline.entries}
    nodes = {n.id: n for n in graph.nodes}
    sync = math.ceil(cm.sync_overhead)
    for engine in ("vector", "matrix"):
        spans = sorted((e.start, e.end) for e in timeline.entries if e.engine == engine)
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert s2 >= e1, f"overlap on {engine}: {(s1, e1)} vs {(s2, e2)}"
    for a, b in graph.edges:
        gap = sync if nodes[a].engine != nodes[b].engine else 0
        assert by_id[b].start >= by_id[a].end + gap
    assert timeline.total == max(e.end for e in timeline.entries)


def filtered_site_subgraph(graph, site):
    """A site's induced subgraph by its definition (node ids preserved): its nodes, and the edges between them."""
    keep = {n.id for n in graph.nodes if n.site == site}
    nodes = tuple(n for n in graph.nodes if n.id in keep)
    edges = tuple((a, c) for a, c in graph.edges if a in keep and c in keep)
    return OpGraph(nodes=nodes, edges=edges, fused=graph.fused, config=graph.config)


def round_trips(obj):
    """`obj` through every pickle protocol, `copy.copy` and `copy.deepcopy`."""
    yield from (pickle.loads(pickle.dumps(obj, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1))
    yield copy.copy(obj)
    yield copy.deepcopy(obj)
