"""Scheduler tests.

The oracle is a brute-force scheduler that tries every valid topological
ordering under the same placement rule and keeps the best makespan; on the
small site graphs the greedy list schedule must match it exactly. On
random id-ordered graphs, the id-order walk must equal Kahn's ready-set
order (`kahn_schedule`) entry for entry. Hand schedules below are worked
out cycle-by-cycle in the comments.
"""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from sched_helpers import (brute_force_makespan, check_timeline_invariants, filtered_site_subgraph, kahn_schedule,
                           round_trips)

from normfusion.block import SITES, VARIANTS, BlockConfig, Node, OpGraph, build_graph
from normfusion.cli import default_config_path
from normfusion.jsonio import dumps_report, load_config, timeline_rows
from normfusion.simulator import CostModel, SiteSaving, TimelineEntry, compare, node_latency, schedule

UNIT_CM = CostModel(matrix_macs_per_cycle=1.0, vector_elems_per_cycle=1.0)

DUMMY_CFG = BlockConfig(d_model=8, n_heads=2, seq_len=4, mlp_hidden=16)


def make_graph(nodes, edges, fused=False):
    return OpGraph(nodes=tuple(nodes), edges=tuple(edges), fused=fused, config=DUMMY_CFG)


def site_graph(ew, coll, mm, scale=None):
    """Micro-graph of one fusion site with work==cycles under UNIT_CM.

    Collective cost under UNIT_CM is alpha=beta=0 plus work/1, so a
    collective node with work w costs exactly w cycles.
    """
    nodes = [
        Node(id=0, kind="elementwise", work=ew, name="ew"),
        Node(id=1, kind="collective", work=coll, name="coll"),
        Node(id=2, kind="matmul", work=mm, name="mm"),
    ]
    if scale is None:
        return make_graph(nodes, [(0, 1), (1, 2)])
    nodes.append(Node(id=3, kind="elementwise", work=scale, name="scale"))
    return make_graph(nodes, [(0, 1), (0, 2), (1, 3), (2, 3)], fused=True)


class TestNodeLatency:
    def test_elementwise(self):
        node = Node(id=0, kind="elementwise", work=100, name="ew")
        assert node_latency(node, CostModel(1.0, 10.0)) == 10

    def test_collective_single_element(self):
        # log2(1) = 0 tree levels: alpha + ceil(1/rate) = 5 + 1 = 6
        node = Node(id=0, kind="collective", work=1, name="c")
        cm = CostModel(1.0, 10.0, collective_alpha=5.0, collective_beta=2.0)
        assert node_latency(node, cm) == 6

    def test_collective_tree_term(self):
        # 8 elements: alpha + beta*3 + 8/4 = 5 + 6 + 2 = 13
        node = Node(id=0, kind="collective", work=8, name="c")
        cm = CostModel(1.0, 4.0, collective_alpha=5.0, collective_beta=2.0)
        assert node_latency(node, cm) == 13

    def test_matmul(self):
        node = Node(id=0, kind="matmul", work=1536, name="mm")
        assert node_latency(node, CostModel(256.0, 1.0)) == 6

    def test_rounds_up(self):
        node = Node(id=0, kind="matmul", work=100, name="mm")
        assert node_latency(node, CostModel(64.0, 1.0)) == 2

    def test_kind_fixes_engine(self):
        engines = {kind: Node(id=0, kind=kind, work=1, name="n").engine
                   for kind in ("elementwise", "collective", "matmul")}
        assert engines == {"elementwise": "vector", "collective": "vector", "matmul": "matrix"}
        with pytest.raises(TypeError, match="engine"):
            Node(id=0, kind="matmul", engine="vector", work=1, name="mm")

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            CostModel(0.0, 1.0)
        with pytest.raises(ValueError, match="positive"):
            CostModel(1.0, -2.0)


# Changes to llama7b_sim.json's cost model and block under which a node's latency passes
# float64's range: an infinite `math.ceil` argument, or work too large to divide as a
# float, raised a bare OverflowError. The first node of the named kind is the first
# whose latency overflows.
OVERFLOWING_LATENCIES = {
    "matrix-rate-1e-300": ({"matrix_macs_per_cycle": 1e-300}, {}, "matmul"),
    "collective-1e308": ({"collective_alpha": 1e308, "collective_beta": 1e308}, {}, "collective"),
    "d-model-10**160": ({}, {"d_model": 10**160, "n_heads": 1}, "matmul"),
    "d-model-2**600": ({}, {"d_model": 2**600, "n_heads": 2**590}, "matmul"),
}


class TestLatencyOverflow:
    """A latency that overflows float64 is a ValueError naming the node, from every scheduling entry point."""

    @staticmethod
    def overflowing(case, fused):
        rc = load_config(str(default_config_path("llama7b_sim")))
        cost_model, block, kind = OVERFLOWING_LATENCIES[case]
        graph = build_graph(dataclasses.replace(rc.block, **block), fused=fused)
        node = next(n for n in graph.nodes if n.kind == kind)
        message = f"^node {node.id} \\({re.escape(node.name)}\\): its latency overflows float64 under this cost model$"
        return graph, dataclasses.replace(rc.cost_model, **cost_model), node, message

    @pytest.mark.parametrize("fused", [False, True], ids=["conventional", "fused"])
    @pytest.mark.parametrize("case", OVERFLOWING_LATENCIES)
    def test_node_latency_and_schedule(self, case, fused):
        graph, cm, node, message = self.overflowing(case, fused)
        with pytest.raises(ValueError, match=message):
            node_latency(node, cm)
        with pytest.raises(ValueError, match=message):
            schedule(graph, cm)

    @pytest.mark.parametrize("case", OVERFLOWING_LATENCIES)
    def test_compare(self, case):
        conventional, cm, _, message = self.overflowing(case, fused=False)
        with pytest.raises(ValueError, match=message):
            compare(conventional, build_graph(conventional.config, fused=True), cm)


class TestSchedule:
    def test_serial_chain_sums(self):
        # ew(10) -> coll(20) -> mm(30), zero sync: 10 + 20 + 30 = 60
        tl = schedule(site_graph(10, 20, 30), UNIT_CM)
        assert tl.total == 60

    def test_fused_site_hides_short_collective(self):
        # ew(10), then coll(20) on vector while mm(30) runs on matrix,
        # then scale(2) after the later of the two: 10 + 30 + 2 = 42
        tl = schedule(site_graph(10, 20, 30, scale=2), UNIT_CM)
        assert tl.total == 42

    def test_fused_site_bound_by_long_collective(self):
        # coll(50) > mm(30): scale waits for the collective: 10 + 50 + 2 = 62
        tl = schedule(site_graph(10, 50, 30, scale=2), UNIT_CM)
        assert tl.total == 62

    def test_cross_engine_sync_applies(self):
        # conventional chain, sync 7: coll->mm crosses engines once
        cm = CostModel(1.0, 1.0, sync_overhead=7.0)
        assert schedule(site_graph(10, 20, 30), cm).total == 67

    def test_deterministic_bit_equal(self):
        g = build_graph(DUMMY_CFG, fused=True)
        cm = CostModel(256.0, 16.0, collective_alpha=40.0, collective_beta=3.0, sync_overhead=2.0)
        assert schedule(g, cm) == schedule(g, cm)

    def test_cycle_rejected(self):
        nodes = [
            Node(id=0, kind="elementwise", work=1, name="a"),
            Node(id=1, kind="elementwise", work=1, name="b"),
        ]
        g = make_graph(nodes, [(0, 1), (1, 0)])
        with pytest.raises(ValueError, match="cycle"):
            schedule(g, UNIT_CM)

    def test_acyclic_edge_against_id_order_rejected(self):
        # acyclic, but node 1 runs before node 0: id order is not a dependency order
        nodes = [
            Node(id=0, kind="elementwise", work=1, name="a"),
            Node(id=1, kind="matmul", work=1, name="b"),
            Node(id=2, kind="elementwise", work=1, name="c"),
        ]
        g = make_graph(nodes, [(0, 2), (1, 0)])
        assert kahn_schedule(g, UNIT_CM).total == 3
        with pytest.raises(ValueError, match=r"^edge \(1, 0\) does not run from a lower id to a higher one; a cycle needs such an edge$"):
            schedule(g, UNIT_CM)
        # a self-loop, the shortest cycle, is named the same way
        with pytest.raises(ValueError, match=r"^edge \(2, 2\) does not run from a lower id to a higher one"):
            schedule(make_graph(nodes, [(0, 2), (2, 2)]), UNIT_CM)

    def test_repeated_node_id_rejected(self):
        # the second node under id 0 was silently dropped: one timeline entry
        nodes = [
            Node(id=0, kind="elementwise", work=1, name="a"),
            Node(id=1, kind="matmul", work=1, name="b"),
            Node(id=0, kind="elementwise", work=2, name="c"),
        ]
        with pytest.raises(ValueError, match=r"^node id 0 appears more than once$"):
            schedule(make_graph(nodes, [(0, 1)]), UNIT_CM)
        # the same node twice raised StopIteration
        with pytest.raises(ValueError, match=r"^node id 1 appears more than once$"):
            schedule(make_graph([nodes[1], nodes[1]], []), UNIT_CM)

    @pytest.mark.parametrize("edge", [(0, 1), (1, 2)], ids=["absent-head", "absent-tail"])
    def test_edge_naming_an_absent_node_rejected(self, edge):
        # either end absent raised a bare KeyError
        nodes = [Node(id=0, kind="elementwise", work=1, name="a"), Node(id=2, kind="matmul", work=1, name="c")]
        with pytest.raises(ValueError, match=rf"^edge \({edge[0]}, {edge[1]}\) names a node that is not in the graph$"):
            schedule(make_graph(nodes, [edge]), UNIT_CM)

    def test_empty_graph_rejected(self):
        # it raised "max() arg is an empty sequence"
        with pytest.raises(ValueError, match="^the graph has no nodes$"):
            schedule(make_graph([], []), UNIT_CM)

    def test_id_order_equals_kahn_on_random_dags(self):
        # random DAGs whose edges all run from a lower id to a higher one; ids
        # have gaps and the node tuple is shuffled, so only the ids give the order
        rng = np.random.default_rng(53)
        kinds = ("elementwise", "collective", "matmul")
        for _ in range(300):
            size = int(rng.integers(1, 31))
            ids = sorted(int(i) for i in rng.choice(100, size=size, replace=False))
            nodes = [Node(id=i, kind=str(rng.choice(kinds)), work=int(rng.integers(1, 5000)), name=f"n{i}")
                     for i in ids]
            rng.shuffle(nodes)
            density = rng.uniform(0.0, 0.5)
            edges = [(a, b) for j, b in enumerate(ids) for a in ids[:j] if rng.random() < density]
            cm = CostModel(
                matrix_macs_per_cycle=float(rng.uniform(0.5, 64.0)),
                vector_elems_per_cycle=float(rng.uniform(0.5, 64.0)),
                collective_alpha=float(rng.integers(0, 200)),
                collective_beta=float(rng.uniform(0.0, 20.0)),
                sync_overhead=float(rng.uniform(0.0, 10.0)),
            )
            g = make_graph(nodes, edges)
            assert schedule(g, cm) == kahn_schedule(g, cm)

    def test_invariants_on_block_timelines(self):
        rng = np.random.default_rng(50)
        for variant in ("standard-gelu", "llama-swiglu"):
            cfg = BlockConfig(d_model=32, n_heads=4, seq_len=8, mlp_hidden=64, variant=variant)
            for fused in (False, True):
                g = build_graph(cfg, fused=fused)
                for _ in range(5):
                    cm = CostModel(
                        matrix_macs_per_cycle=float(rng.integers(64, 4096)),
                        vector_elems_per_cycle=float(rng.integers(16, 1024)),
                        collective_alpha=float(rng.integers(0, 5000)),
                        collective_beta=float(rng.integers(0, 500)),
                        sync_overhead=float(rng.integers(0, 100)),
                    )
                    check_timeline_invariants(g, schedule(g, cm), cm)


class TestOptimality:
    def test_hand_graphs_match_brute_force(self):
        for g in (site_graph(10, 20, 30), site_graph(10, 20, 30, scale=2), site_graph(10, 50, 30, scale=2)):
            for sync in (0.0, 5.0):
                cm = CostModel(1.0, 1.0, sync_overhead=sync)
                assert schedule(g, cm).total == brute_force_makespan(g, cm)

    def test_site_micrographs_match_brute_force(self):
        rng = np.random.default_rng(51)
        for variant in ("standard-gelu", "llama-swiglu"):
            cfg = BlockConfig(d_model=16, n_heads=2, seq_len=4, mlp_hidden=24, variant=variant)
            for fused in (False, True):
                g = build_graph(cfg, fused=fused)
                for site in ("ln1", "softmax", "ln2"):
                    sub = filtered_site_subgraph(g, site)
                    assert len(sub.nodes) <= 8
                    for _ in range(3):
                        cm = CostModel(
                            matrix_macs_per_cycle=float(rng.integers(8, 256)),
                            vector_elems_per_cycle=float(rng.integers(4, 64)),
                            collective_alpha=float(rng.integers(0, 200)),
                            collective_beta=float(rng.integers(0, 50)),
                            sync_overhead=float(rng.integers(0, 10)),
                        )
                        assert schedule(sub, cm).total == brute_force_makespan(sub, cm)


class TestCompare:
    def test_per_site_hiding_law_documented_cases(self):
        # Site works under UNIT_CM (latency == work), sync 0, from the
        # ln1 site of an 8-wide, 4-token standard block:
        #   ew = coll = 32, mm = 768, scale = 96
        # conventional: 32 + 32 + 768 = 832
        # fused: 32 + max(32, 768) + 96 = 896 -> hidden = -64 (scale costs
        # more than this tiny collective; the law still holds as
        # min(coll, mm) - scale = 32 - 96)
        cfg = BlockConfig(d_model=8, n_heads=2, seq_len=4, mlp_hidden=16)
        conv, fused = build_graph(cfg, fused=False), build_graph(cfg, fused=True)
        rep = compare(conv, fused, UNIT_CM)
        ln1 = rep.per_site_savings[0]
        assert ln1.site == "ln1"
        assert ln1.hidden_cycles == min(32, 768) - 96

        # Same block, expensive collectives (alpha 500), sync 10:
        #   coll = 500 + ceil(log2 32)*0 + 32 = 532, mm = 768, scale = 96
        # conventional: 32 + 532 + 10 + 768 = 1342
        # fused: mm ends at 32+10+768 = 810, coll ends at 32+532 = 564,
        #        scale = max(564, 810+10) + 96 = 916 -> hidden = 426
        #        (= min(532, 768+2*10) - 96 - 10)
        cm2 = CostModel(1.0, 1.0, collective_alpha=500.0, sync_overhead=10.0)
        rep2 = compare(conv, fused, cm2)
        assert rep2.per_site_savings[0].hidden_cycles == 1342 - 916 == 426

        # Collective longer than the matmul (alpha 1000, sync 0):
        #   coll = 1032, mm = 768: the matmul hides entirely, minus scale
        # conventional: 32 + 1032 + 768 = 1832
        # fused: max(32+1032, 32+768) + 96 = 1160 -> hidden = 672 = mm - scale
        cm3 = CostModel(1.0, 1.0, collective_alpha=1000.0)
        rep3 = compare(conv, fused, cm3)
        assert rep3.per_site_savings[0].hidden_cycles == 1832 - 1160 == 768 - 96

    def test_zero_collective_cost_no_speedup(self):
        cfg = BlockConfig(d_model=64, n_heads=4, seq_len=16, mlp_hidden=128)
        cm = CostModel(matrix_macs_per_cycle=256.0, vector_elems_per_cycle=1e12)
        rep = compare(build_graph(cfg, fused=False), build_graph(cfg, fused=True), cm)
        assert abs(rep.speedup_percent) <= 0.5

    def test_fused_never_slower_for_sane_models(self):
        # "Sane" pins down two physical properties: collectives carry real
        # startup cost (alpha well above the deferred-scale cost they pay
        # for), and the matrix engine is not more than ~d_model times
        # faster per element than the vector engine (so a matmul outlasts
        # the scaling of its own output). Outside that envelope deferral
        # can lose by construction.
        rng = np.random.default_rng(52)
        for _ in range(40):
            heads = int(rng.choice([2, 4, 8]))
            cfg = BlockConfig(
                d_model=heads * int(rng.integers(4, 17)),
                n_heads=heads,
                seq_len=int(rng.integers(8, 33)),
                mlp_hidden=int(rng.integers(16, 257)),
                variant=str(rng.choice(["standard-gelu", "llama-swiglu"])),
            )
            v_rate = float(rng.integers(256, 8193))
            cm = CostModel(
                matrix_macs_per_cycle=v_rate * float(rng.integers(1, 5)),
                vector_elems_per_cycle=v_rate,
                collective_alpha=float(rng.integers(5000, 500001)),
                collective_beta=float(rng.integers(100, 50001)),
                sync_overhead=float(rng.integers(0, 201)),
            )
            rep = compare(build_graph(cfg, fused=False), build_graph(cfg, fused=True), cm)
            assert rep.fused_total <= rep.conventional_total
            assert 0.0 <= rep.speedup_percent < 100.0

    # Deferral can hide at most the collectives' own latency: in integers,
    # conventional - fused <= the sum of the conventional graph's collective
    # latencies, whatever the shape and cost model, with or without sync.
    @given(
        variant=st.sampled_from(["standard-gelu", "llama-swiglu"]),
        heads=st.integers(1, 8), d_head=st.integers(1, 32), seq=st.integers(1, 256),
        mlp_hidden=st.integers(1, 1024),
        matrix_rate=st.floats(1.0, 1e5), vector_rate=st.floats(1.0, 1e4),
        alpha=st.floats(0.0, 1e6), beta=st.floats(0.0, 1e5),
        sync=st.one_of(st.just(0.0), st.floats(0.0, 1e4)),
    )
    def test_saving_is_at_most_the_conventional_collectives(self, variant, heads, d_head, seq, mlp_hidden,
                                                            matrix_rate, vector_rate, alpha, beta, sync):
        cfg = BlockConfig(d_model=heads * d_head, n_heads=heads, seq_len=seq, mlp_hidden=mlp_hidden, variant=variant)
        cm = CostModel(matrix_macs_per_cycle=matrix_rate, vector_elems_per_cycle=vector_rate,
                       collective_alpha=alpha, collective_beta=beta, sync_overhead=sync)
        conv = build_graph(cfg, fused=False)
        collectives = sum(node_latency(n, cm) for n in conv.nodes if n.kind == "collective")
        assert schedule(conv, cm).total - schedule(build_graph(cfg, fused=True), cm).total <= collectives

    def test_mismatched_inputs_rejected(self):
        cfg = BlockConfig(d_model=8, n_heads=2, seq_len=4, mlp_hidden=16)
        other = BlockConfig(d_model=16, n_heads=2, seq_len=4, mlp_hidden=16)
        conv, fused = build_graph(cfg, fused=False), build_graph(cfg, fused=True)
        with pytest.raises(ValueError, match="conventional graph"):
            compare(fused, fused, UNIT_CM)
        with pytest.raises(ValueError, match="fused graph"):
            compare(conv, conv, UNIT_CM)
        with pytest.raises(ValueError, match="different block configs"):
            compare(conv, build_graph(other, fused=True), UNIT_CM)


class TestSiteSplit:
    """`compare` reads each site's saving from the site's span in the two full timelines.

    A span runs from the earliest start to the latest end of the site's
    nodes. On built graphs it equals the makespan of the site's filtered
    subgraph scheduled alone, the definition the savings had before.
    """

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("fused", [False, True], ids=["conventional", "fused"])
    def test_each_site_is_an_id_range_with_one_entry_and_one_exit(self, variant, fused):
        g = build_graph(BlockConfig(d_model=16, n_heads=2, seq_len=4, mlp_hidden=24, variant=variant), fused=fused)
        for site in SITES:
            ids = sorted(n.id for n in g.nodes if n.site == site)
            assert ids == list(range(ids[0], ids[-1] + 1)), site
            inside = set(ids)
            entering = {b for a, b in g.edges if a not in inside and b in inside}
            leaving = {a for a, b in g.edges if a in inside and b not in inside}
            assert entering == (set() if site == "ln1" else {ids[0]}), site
            assert leaving == {ids[-1]}, site
            # every other node follows the entry node within the site, and the exit node follows it
            assert all(any(a in inside and b == nid for a, b in g.edges) for nid in ids[1:]), site
            assert all(any(a == nid and b in inside for a, b in g.edges) for nid in ids[:-1]), site

    def test_compare_schedules_the_filtered_sites(self):
        # 1,000 seeded configs and cost models, both variants, 1-8 heads, seq up to 4096;
        # alpha, beta and sync are each zero in some of them
        rng = np.random.default_rng(62)
        for trial in range(1000):
            heads = int(rng.integers(1, 9))
            cfg = BlockConfig(d_model=heads * int(rng.integers(1, 129)), n_heads=heads,
                              seq_len=int(rng.integers(1, 4097)), mlp_hidden=int(rng.integers(1, 16385)),
                              variant=VARIANTS[trial % 2])
            cm = CostModel(
                matrix_macs_per_cycle=float(rng.uniform(1.0, 4096.0)),
                vector_elems_per_cycle=float(rng.uniform(1.0, 512.0)),
                collective_alpha=float(rng.integers(0, 100_000)) * (trial % 4 != 0),
                collective_beta=float(rng.uniform(0.0, 5000.0)) * (trial % 5 != 0),
                sync_overhead=float(rng.integers(0, 500)) * (trial % 3 != 0),
            )
            conv, fused = build_graph(cfg, fused=False), build_graph(cfg, fused=True)
            want = tuple(SiteSaving(site, schedule(filtered_site_subgraph(conv, site), cm).total
                                    - schedule(filtered_site_subgraph(fused, site), cm).total) for site in SITES)
            assert compare(conv, fused, cm).per_site_savings == want, trial

    def test_llama7b_sim_savings(self):
        rc = load_config(str(default_config_path("llama7b_sim")))
        conv, fused = build_graph(rc.block, fused=False), build_graph(rc.block, fused=True)
        rep = compare(conv, fused, rc.cost_model)
        assert (rep.conventional_total, rep.fused_total) == (9_128_352, 7_497_440)
        assert rep.per_site_savings == (SiteSaving("ln1", 687_840), SiteSaving("softmax", 260_160),
                                        SiteSaving("ln2", 682_976))

    def test_span_is_the_earliest_start_to_the_latest_end(self):
        # Under UNIT_CM (latency == work). Conventional:
        #   ln1:     0 matmul 0-10, 1 elementwise 0-3            -> span 10 (the earlier id ends later)
        #   softmax: 2 matmul after 1: 10-15, 3 elementwise 3-5  -> span 15 - 3 = 12 (the later id starts first)
        #   ln2:     4 elementwise after 2 and 3: 15-16          -> span 1
        conv = make_graph([Node(0, "matmul", 10, "a", "ln1"), Node(1, "elementwise", 3, "b", "ln1"),
                           Node(2, "matmul", 5, "c", "softmax"), Node(3, "elementwise", 2, "d", "softmax"),
                           Node(4, "elementwise", 1, "e", "ln2")],
                          [(1, 2), (2, 4), (3, 4)])
        # fused: one 4-cycle node per site, a chain -> spans 4, 4, 4
        fused = make_graph([Node(i, "elementwise", 4, f"f{i}", site) for i, site in enumerate(SITES)],
                           [(0, 1), (1, 2)], fused=True)
        rep = compare(conv, fused, UNIT_CM)
        assert rep.per_site_savings == (SiteSaving("ln1", 6), SiteSaving("softmax", 8), SiteSaving("ln2", -3))

    def test_node_tuple_order_does_not_matter(self):
        # `schedule` runs the nodes by id, so a shuffled node tuple gives the same report
        rng = np.random.default_rng(63)
        cm = CostModel(64.0, 8.0, collective_alpha=300.0, collective_beta=7.0, sync_overhead=3.0)
        for variant in VARIANTS:
            cfg = BlockConfig(d_model=32, n_heads=4, seq_len=16, mlp_hidden=96, variant=variant)
            conv, fused = build_graph(cfg, fused=False), build_graph(cfg, fused=True)
            shuffled = [g._replace(nodes=tuple(g.nodes[i] for i in rng.permutation(len(g.nodes))))
                        for g in (conv, fused)]
            assert [g.nodes for g in shuffled] != [conv.nodes, fused.nodes]
            assert compare(*shuffled, cm) == compare(conv, fused, cm)

    @pytest.mark.parametrize("fused", [False, True], ids=["conventional", "fused"])
    @pytest.mark.parametrize("site", SITES)
    def test_a_graph_without_a_site_rejected(self, site, fused):
        # the site's subgraph had no node, which `schedule` rejected
        graphs = [build_graph(DUMMY_CFG, fused=False), build_graph(DUMMY_CFG, fused=True)]
        g = graphs[fused]
        graphs[fused] = g._replace(nodes=tuple(n._replace(site=None) if n.site == site else n for n in g.nodes))
        which = "fused" if fused else "conventional"
        with pytest.raises(ValueError, match=f"^the {which} graph has no node of site '{site}'$"):
            compare(*graphs, UNIT_CM)


LLAMA_CFG = BlockConfig(d_model=64, n_heads=4, seq_len=8, mlp_hidden=176, variant="llama-swiglu")
RECORD_CM = CostModel(256.0, 16.0, collective_alpha=40.0, collective_beta=3.0, sync_overhead=2.0)
ENGINES = {"elementwise": "vector", "collective": "vector", "matmul": "matrix"}


def assert_rejected(node, message, latency=True):
    """`node`, which checks nothing itself, is rejected with `message` where it enters the simulator.

    `schedule` and `compare` reject it in a one-node graph, and so does
    `node_latency`, unless `latency` is false: it costs a node, and reads
    no id.
    """
    graph = make_graph([node], [])
    calls = [lambda: schedule(graph, RECORD_CM), lambda: compare(graph, build_graph(DUMMY_CFG, True), RECORD_CM)]
    if latency:
        calls.append(lambda: node_latency(node, RECORD_CM))
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


class TestRecords:
    """`Node` and `TimelineEntry` are named tuples that check nothing; the simulator checks every node it is given."""

    NODE = Node(id=3, kind="matmul", work=96, name="ln1.matmul", site="ln1")

    def records(self):
        graph = build_graph(LLAMA_CFG, fused=True)
        timeline = schedule(graph, RECORD_CM)
        report = compare(build_graph(LLAMA_CFG, fused=False), graph, RECORD_CM)
        return [self.NODE, timeline.entries[0], graph, timeline, report]

    def test_records_survive_pickle_and_copy(self):
        for record in self.records():
            for copied in round_trips(record):
                assert type(copied) is type(record)
                assert copied == record

    @pytest.mark.parametrize("make", [
        lambda kind, work: Node(0, kind, work, "n"),
        lambda kind, work: Node._make((0, kind, work, "n", None)),
        lambda kind, work: TestRecords.NODE._replace(kind=kind, work=work),
    ], ids=["constructor", "make", "replace"])
    def test_every_construction_path_is_checked_where_scheduled(self, make):
        for kind, engine in ENGINES.items():
            node = make(kind, 5)
            assert (type(node), node.kind, node.engine, node.work) == (Node, kind, engine, 5)
        assert_rejected(make("bogus", 5), "^unknown node kind 'bogus'$")
        for work in (0, -3):
            assert_rejected(make("matmul", work), f"^node work must be positive, got {work}$")

    def test_engine_is_never_replaced(self):
        # the constructor's TypeError is `TestNodeLatency::test_kind_fixes_engine`'s
        with pytest.raises(ValueError, match=r"^Got unexpected field names: \['engine'\]$"):
            self.NODE._replace(engine="vector")
        assert self.NODE._replace(kind="collective").engine == "vector"
        assert Node._make(tuple(self.NODE)) == self.NODE

    def test_fields_cannot_be_assigned(self):
        for record in (self.NODE, TimelineEntry(0, "vector", 0, 5)):
            with pytest.raises(AttributeError):
                record.engine = "matrix"

    def test_records_are_tuples_of_their_fields(self):
        assert TimelineEntry(0, "vector", 0, 5) == (0, "vector", 0, 5)
        node_id, engine, start, end = TimelineEntry(0, "vector", 0, 5)
        assert (node_id, engine, start, end) == (0, "vector", 0, 5)
        assert tuple(self.NODE) == (3, "matmul", 96, "ln1.matmul", "ln1")

    @pytest.mark.parametrize("field", ["id", "work"])
    @pytest.mark.parametrize("value", [True, False, np.True_, 2.5, 4.0, "4", None], ids=repr)
    def test_id_and_work_must_be_integers(self, field, value):
        node = Node(**{**dict(id=0, kind="matmul", work=4, name="mm"), field: value})
        assert_rejected(node, f"^node {field} must be an integer, got {re.escape(repr(value))}$", latency=field == "work")

    @pytest.mark.parametrize("true", [True, np.True_, 1.0], ids=repr)
    def test_a_bool_id_never_aliases_id_1(self, true):
        # True == 1 and hashes as 1, as 1.0 does, so keyed as given a node id or an edge end would be node 1
        nodes = [Node(0, "elementwise", 1, "a"), Node(1, "matmul", 1, "b"), Node(2, "elementwise", 1, "c")]
        cases = [  # (the graph's nodes, its edges, the error)
            ([nodes[0], nodes[1]._replace(id=true), nodes[2]], [(0, 1), (1, 2)],
             f"node id must be an integer, got {true!r}"),
            (nodes, [(0, true), (1, 2)], f"edge (0, {true!r}): node ids must be integers"),
            (nodes, [(0, 1), (true, 2)], f"edge ({true!r}, 2): node ids must be integers"),
        ]
        for graph_nodes, edges, message in cases:
            graph = make_graph(graph_nodes, edges)
            for call in (lambda: schedule(graph, RECORD_CM),
                         lambda: compare(graph, build_graph(DUMMY_CFG, fused=True), RECORD_CM)):
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    call()

    def test_numpy_integers_stored_as_plain_ints(self):
        # `schedule` stores each id, and each latency, as a plain int, so the report is byte-identical
        graph = build_graph(DUMMY_CFG, fused=False)
        numpy_nodes = tuple(Node(np.int64(n.id), n.kind, np.int32(n.work), n.name, n.site) for n in graph.nodes)
        numpy_graph = make_graph(numpy_nodes, graph.edges)
        timeline = schedule(numpy_graph, RECORD_CM)
        assert all(type(v) is int for entry in timeline.entries for v in (entry.node_id, entry.start, entry.end))
        rows = timeline_rows(numpy_graph, timeline)
        assert dumps_report({"rows": rows}) == dumps_report({"rows": timeline_rows(graph, schedule(graph, RECORD_CM))})

    @pytest.mark.parametrize("fused", [False, True])
    def test_numpy_integer_edge_ends_schedule_as_plain_ints(self, fused):
        graph = build_graph(DUMMY_CFG, fused)
        numpy_graph = graph._replace(edges=tuple((np.int64(a), np.int32(b)) for a, b in graph.edges))
        timeline = schedule(numpy_graph, RECORD_CM)
        assert timeline == schedule(graph, RECORD_CM)
        assert all(type(v) is int for entry in timeline.entries for v in (entry.node_id, entry.start, entry.end))

    @pytest.mark.parametrize("cfg", [DUMMY_CFG, LLAMA_CFG])
    @pytest.mark.parametrize("fused", [False, True])
    def test_equal_configs_give_equal_graphs(self, cfg, fused):
        a, b = build_graph(cfg, fused), build_graph(BlockConfig(**vars(cfg)), fused)
        assert a == b and hash(a) == hash(b)
        assert [hash(n) for n in a.nodes] == [hash(n) for n in b.nodes]

    @pytest.mark.parametrize("fused", [False, True])
    def test_round_tripped_nodes_schedule_the_same(self, fused):
        graph = build_graph(LLAMA_CFG, fused)
        expected = schedule(graph, RECORD_CM)
        remade = [[Node._make(tuple(n)) for n in graph.nodes], [n._replace() for n in graph.nodes],
                  *zip(*(round_trips(n) for n in graph.nodes))]  # one graph per way of remaking a node
        for nodes in remade:
            assert all(type(n) is Node for n in nodes)
            assert schedule(graph._replace(nodes=tuple(nodes)), RECORD_CM) == expected
