"""Tests for Dinic's max-flow solver, pinned against a brute-force
min-cut oracle.

The oracle enumerates every s-t node split of a small graph, so it
shares no code with the solver -- not even :class:`ResidualNetwork` --
and checks the cut Section 6 consumes as well as the flow value.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GraphError
from repro.graph.flowgraph import INF, FlowGraph
from repro.graph.generators import (grid_graph, layered_dag, random_dag,
                                    series_parallel)
from repro.graph.maxflow import dinic_max_flow



def brute_min_cut(g):
    """Min s-t cut of ``g`` by enumerating every node split.

    Returns ``(capacity, source_side)``: the least cut capacity, clamped
    at ``INF``, and the intersection of every minimum cut's source side
    as a per-node bool list.  That intersection is itself a minimum cut
    -- the inclusion-minimal one -- and is what residual reachability
    (``ResidualNetwork.source_side()``) must return after any max flow.
    """
    s, t = g.source, g.sink
    interior = [v for v in range(g.num_nodes) if v not in (s, t)]
    best = canonical = None
    for mask in range(1 << len(interior)):
        side = [False] * g.num_nodes
        side[s] = True
        for bit, v in enumerate(interior):
            side[v] = bool(mask >> bit & 1)
        cap = min(INF, sum(e.capacity for e in g.edges
                           if side[e.tail] and not side[e.head]))
        if best is None or cap < best:
            best, canonical = cap, side
        elif cap == best:
            canonical = [a and b for a, b in zip(canonical, side)]
    return best, canonical


#: The known answers pin the oracle as well as the solver.
ALGORITHMS = [dinic_max_flow, brute_min_cut]


def diamond():
    """Classic diamond with a cross edge; max flow 2000 + 0 reroutes."""
    g = FlowGraph()
    a, b = g.add_node(), g.add_node()
    g.add_edge(g.source, a, 1000)
    g.add_edge(g.source, b, 1000)
    g.add_edge(a, b, 1)
    g.add_edge(a, g.sink, 1000)
    g.add_edge(b, g.sink, 1000)
    return g


@pytest.mark.parametrize("algo", ALGORITHMS)
class TestKnownAnswers:
    def test_single_edge(self, algo):
        g = FlowGraph()
        g.add_edge(g.source, g.sink, 7)
        assert algo(g)[0] == 7

    def test_disconnected_is_zero(self, algo):
        g = FlowGraph()
        n = g.add_node()
        g.add_edge(g.source, n, 5)
        assert algo(g)[0] == 0

    def test_series_bottleneck(self, algo):
        g = FlowGraph()
        a = g.add_node()
        b = g.add_node()
        g.add_edge(g.source, a, 10)
        g.add_edge(a, b, 3)
        g.add_edge(b, g.sink, 10)
        assert algo(g)[0] == 3

    def test_parallel_sum(self, algo):
        g = FlowGraph()
        for cap in (2, 3, 5):
            g.add_edge(g.source, g.sink, cap)
        assert algo(g)[0] == 10

    def test_diamond(self, algo):
        assert algo(diamond())[0] == 2000

    def test_zero_capacity_edges_carry_nothing(self, algo):
        g = FlowGraph()
        a = g.add_node()
        g.add_edge(g.source, a, 0)
        g.add_edge(a, g.sink, 9)
        assert algo(g)[0] == 0

    def test_needs_residual_reroute(self, algo):
        # Greedy path choice must be undone through the reverse arc.
        g = FlowGraph()
        a, b = g.add_node(), g.add_node()
        g.add_edge(g.source, a, 1)
        g.add_edge(g.source, b, 1)
        g.add_edge(a, b, 1)
        g.add_edge(a, g.sink, 1)
        g.add_edge(b, g.sink, 1)
        assert algo(g)[0] == 2

    def test_inf_interior_edges(self, algo):
        g = FlowGraph()
        a = g.add_node()
        b = g.add_node()
        g.add_edge(g.source, a, 13)
        g.add_edge(a, b, INF)
        g.add_edge(b, g.sink, 8)
        assert algo(g)[0] == 8


class TestResidualAccounting:
    def test_flow_on_edges_conserved(self):
        g = layered_dag(3, 4, seed=7)
        value, net = dinic_max_flow(g)
        # Conservation at every interior node.
        balance = [0] * g.num_nodes
        for i, e in enumerate(g.edges):
            f = net.flow_on(i)
            assert 0 <= f <= e.capacity
            balance[e.tail] -= f
            balance[e.head] += f
        for node in range(2, g.num_nodes):
            assert balance[node] == 0
        assert balance[g.sink] == value
        assert balance[g.source] == -value

    def test_source_side_excludes_sink(self):
        g = diamond()
        _, net = dinic_max_flow(g)
        side = net.source_side()
        assert side[g.source]
        assert not side[g.sink]

    def test_source_equals_sink_rejected(self):
        bad = FlowGraph()
        bad.SINK = 0  # instance attribute shadowing: source == sink
        with pytest.raises(GraphError):
            dinic_max_flow(bad)


def assert_matches_oracle(g):
    """Dinic's value and canonical source side equal the oracle's."""
    value, net = dinic_max_flow(g)
    assert (value, net.source_side()) == brute_min_cut(g)


class TestCrossValidation:
    """Dinic against :func:`brute_min_cut`."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_dags_agree(self, seed):
        assert_matches_oracle(random_dag(10, 30, seed=seed))

    @pytest.mark.parametrize("seed", range(6))
    def test_grids_agree(self, seed):
        assert_matches_oracle(grid_graph(3, 3, seed=seed))

    @pytest.mark.parametrize("seed", range(8))
    def test_series_parallel_known_flow(self, seed):
        g, expected = series_parallel(6, seed=seed)
        assert dinic_max_flow(g)[0] == expected

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), nodes=st.integers(1, 10),
           edges=st.integers(0, 30))
    def test_fuzz_agreement(self, seed, nodes, edges):
        assert_matches_oracle(random_dag(nodes, edges, seed=seed))
