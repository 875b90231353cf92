"""Tests for label-based collapsing / multi-run combining (Sections 3.2, 5.2)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.collapse import collapse_graph, collapse_graphs
from repro.graph.flowgraph import INF, EdgeLabel, FlowGraph
from repro.graph.generators import random_dag
from repro.graph.maxflow import dinic_max_flow


def loop_graph(iterations, location="loop.c:7"):
    """A chain of per-iteration nodes, every edge at the same location.

    Models one loop executing ``iterations`` times; collapsing should
    fold the chain to a constant-size cluster.
    """
    g = FlowGraph()
    prev = g.add_node()
    g.add_edge(g.source, prev, 8, EdgeLabel("entry", kind="input"))
    for i in range(iterations):
        nxt = g.add_node()
        g.add_edge(prev, nxt, 8, EdgeLabel(location, kind="data"))
        prev = nxt
    g.add_edge(prev, g.sink, 8, EdgeLabel("exit", kind="io"))
    return g


class TestSingleGraphCollapse:
    def test_loop_collapses_to_constant_size(self):
        small = loop_graph(5)
        large = loop_graph(500)
        collapsed_small, _ = collapse_graph(small)
        collapsed_large, _ = collapse_graph(large)
        assert collapsed_small.num_nodes == collapsed_large.num_nodes
        assert collapsed_small.num_edges == collapsed_large.num_edges

    def test_collapse_preserves_max_flow_on_chain(self):
        g = loop_graph(50)
        collapsed, stats = collapse_graph(g)
        assert dinic_max_flow(g)[0] == 8
        assert dinic_max_flow(collapsed)[0] == 8
        assert stats.collapsed_edges < stats.original_edges

    @staticmethod
    def label_by_role(g, buckets):
        """Assign labels consistent with each edge's structural role."""
        for i, e in enumerate(g.edges):
            if e.tail == g.source:
                e.label = EdgeLabel("in%d" % (i % buckets), kind="input")
            elif e.head == g.sink:
                e.label = EdgeLabel("out%d" % (i % buckets), kind="io")
            else:
                e.label = EdgeLabel("mid%d" % (i % buckets), kind="data")

    def test_collapse_is_sound_never_lowers_flow(self):
        # Collapsing may only increase (or keep) the max flow: any
        # original flow remains feasible in the collapsed graph.
        for seed in range(8):
            g = random_dag(10, 25, seed=seed)
            self.label_by_role(g, 5)
            original = dinic_max_flow(g)[0]
            collapsed, _ = collapse_graph(g)
            assert dinic_max_flow(collapsed)[0] >= original

    def test_inconsistent_labels_detected(self):
        from repro.errors import GraphError
        g = FlowGraph()
        a = g.add_node()
        bad = EdgeLabel("same", kind="data")
        g.add_edge(g.source, a, 1, bad)
        g.add_edge(a, g.sink, 1, bad)
        with pytest.raises(GraphError):
            collapse_graph(g)

    def test_same_label_capacities_sum(self):
        g = FlowGraph()
        label = EdgeLabel("f:1", kind="data")
        a = g.add_node()
        b = g.add_node()
        g.add_edge(g.source, a, 1, EdgeLabel("in", kind="input"))
        g.add_edge(a, b, 3, label)
        g.add_edge(a, b, 4, label)
        g.add_edge(b, g.sink, 1, EdgeLabel("out", kind="io"))
        collapsed, _ = collapse_graph(g)
        merged = [e for e in collapsed.edges if e.label == label]
        assert len(merged) == 1
        assert merged[0].capacity == 7

    def test_inf_capacity_stays_inf(self):
        g = FlowGraph()
        label = EdgeLabel("f:1", kind="chain")
        a = g.add_node()
        g.add_edge(g.source, a, INF, label)
        g.add_edge(g.source, a, INF, label)
        g.add_edge(a, g.sink, 5, EdgeLabel("out", kind="io"))
        collapsed, _ = collapse_graph(g)
        chain = [e for e in collapsed.edges if e.label is not None
                 and e.label.kind == "chain"]
        assert chain[0].capacity >= INF

    def test_self_loops_dropped(self):
        g = FlowGraph()
        label = EdgeLabel("loop:1", kind="data")
        a = g.add_node()
        b = g.add_node()
        g.add_edge(a, b, 2, label)
        g.add_edge(b, a, 2, label)  # same label: endpoints all merge
        collapsed, _ = collapse_graph(g)
        assert all(e.tail != e.head for e in collapsed.edges)

    def test_unlabelled_edges_survive(self):
        g = FlowGraph()
        a = g.add_node()
        g.add_edge(g.source, a, 4)
        g.add_edge(a, g.sink, 4)
        collapsed, _ = collapse_graph(g)
        assert dinic_max_flow(collapsed)[0] == 4

    def test_context_insensitive_merges_more(self):
        g = FlowGraph()
        a = g.add_node()
        b = g.add_node()
        g.add_edge(g.source, a, 1, EdgeLabel("in", kind="input"))
        g.add_edge(g.source, b, 1, EdgeLabel("in", kind="input"))
        g.add_edge(a, g.sink, 1, EdgeLabel("f:1", context=111, kind="io"))
        g.add_edge(b, g.sink, 1, EdgeLabel("f:1", context=222, kind="io"))
        ctx, _ = collapse_graph(g, context_sensitive=True)
        no_ctx, _ = collapse_graph(g, context_sensitive=False)
        assert no_ctx.num_edges < ctx.num_edges

    def test_stats_report_sizes(self):
        g = loop_graph(20)
        _, stats = collapse_graph(g)
        assert stats.original_nodes == g.num_nodes
        assert stats.original_edges == g.num_edges
        assert stats.collapsed_edges <= stats.original_edges

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            collapse_graphs([])


class TestMultiRunCombination:
    def test_sources_and_sinks_identified(self):
        g1 = loop_graph(3)
        g2 = loop_graph(7)
        combined, _ = collapse_graphs([g1, g2])
        # Each run contributes 8 bits at the same labels: capacities sum.
        assert dinic_max_flow(combined)[0] == 16

    def test_combination_bounds_sum_of_runs(self):
        # Soundness: the combined bound is >= each individual bound, and
        # indeed >= their sum when the runs use the same locations.
        runs = [loop_graph(n) for n in (2, 5, 9)]
        individual = [dinic_max_flow(g)[0] for g in runs]
        combined, _ = collapse_graphs(runs)
        assert dinic_max_flow(combined)[0] >= max(individual)

    def test_distinct_locations_stay_separate(self):
        def one_edge(location, cap):
            g = FlowGraph()
            g.add_edge(g.source, g.sink, cap, EdgeLabel(location, kind="io"))
            return g

        combined, _ = collapse_graphs([one_edge("siteA", 3),
                                       one_edge("siteB", 4)])
        by_loc = {e.label.location: e.capacity for e in combined.edges}
        assert by_loc == {"siteA": 3, "siteB": 4}

    def test_uniform_loop_chain_collapses_to_self_loop_free_cluster(self):
        # All chain edges share one label, so the whole chain merges into
        # a single cluster and the chain edges vanish as self-loops; the
        # entry/exit edges still carry the flow.
        combined, _ = collapse_graphs([loop_graph(3, location="siteA")])
        assert all(e.tail != e.head for e in combined.edges)
        assert dinic_max_flow(combined)[0] == 8


class TestCollapseSoundnessProperty:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), labels=st.integers(1, 10))
    def test_collapsed_flow_never_below_original(self, seed, labels):
        g = random_dag(8, 20, seed=seed)
        TestSingleGraphCollapse.label_by_role(g, labels)
        original = dinic_max_flow(g)[0]
        collapsed, _ = collapse_graph(g)
        assert dinic_max_flow(collapsed)[0] >= original
