"""Tests for minimum-cut extraction (Section 6.1)."""

from hypothesis import given, settings, strategies as st

from repro.graph.flowgraph import EdgeLabel, FlowGraph
from repro.graph.generators import grid_graph, random_dag
from repro.graph.maxflow import dinic_max_flow
from repro.graph.mincut import min_cut, min_cut_from_residual


def bottleneck_graph():
    """source -(10)-> a -(3, labelled)-> b -(10)-> sink; cut is the 3."""
    g = FlowGraph()
    a = g.add_node()
    b = g.add_node()
    g.add_edge(g.source, a, 10)
    g.add_edge(a, b, 3, EdgeLabel("prog.c:14", kind="value"))
    g.add_edge(b, g.sink, 10)
    return g


class TestMinCut:
    def test_cut_capacity_equals_flow(self):
        value, cut = min_cut(bottleneck_graph())
        assert value == 3
        assert cut.capacity == 3

    def test_cut_identifies_bottleneck_edge(self):
        _, cut = min_cut(bottleneck_graph())
        assert len(cut) == 1
        (ce,) = cut
        assert ce.capacity == 3
        assert ce.label.location == "prog.c:14"
        assert ce.label.kind == "value"

    def test_labels_helper_skips_unlabelled(self):
        _, cut = min_cut(bottleneck_graph())
        assert [l.location for l in cut.labels()] == ["prog.c:14"]

    def test_source_side_contains_source(self):
        _, cut = min_cut(bottleneck_graph())
        assert cut.source_side[0]
        assert not cut.source_side[1]

    def test_cut_with_multiple_edges(self):
        g = FlowGraph()
        a = g.add_node()
        b = g.add_node()
        g.add_edge(g.source, a, 8)
        g.add_edge(g.source, b, 8)
        g.add_edge(a, g.sink, 1)
        g.add_edge(b, g.sink, 2)
        value, cut = min_cut(g)
        assert value == 3
        assert sorted(ce.capacity for ce in cut) == [1, 2]

    def test_removing_cut_edges_disconnects(self):
        g = grid_graph(4, 4, seed=9)
        value, cut = min_cut(g)
        cut_indices = {ce.edge_index for ce in cut}
        h = FlowGraph()
        h._num_nodes = g.num_nodes
        for i, e in enumerate(g.edges):
            if i not in cut_indices:
                h.add_edge(e.tail, e.head, e.capacity)
        assert dinic_max_flow(h)[0] == 0

    def test_cut_valid_from_residual(self):
        g = grid_graph(4, 5, seed=3)
        value, residual = dinic_max_flow(g)
        cut = min_cut_from_residual(g, residual)
        assert cut.capacity == value


class TestMaxFlowMinCutDuality:
    """Property: max-flow value == min-cut capacity on random graphs."""

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10**6), nodes=st.integers(1, 10),
           edges=st.integers(0, 30))
    def test_duality(self, seed, nodes, edges):
        g = random_dag(nodes, edges, seed=seed)
        value, cut = min_cut(g)
        assert cut.capacity == value

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), nodes=st.integers(1, 10),
           edges=st.integers(0, 30))
    def test_cut_edges_saturated(self, seed, nodes, edges):
        g = random_dag(nodes, edges, seed=seed)
        value, residual = dinic_max_flow(g)
        cut = min_cut_from_residual(g, residual)
        for ce in cut:
            assert residual.flow_on(ce.edge_index) == ce.capacity
