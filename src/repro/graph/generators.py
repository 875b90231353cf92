"""Synthetic flow-graph generators for tests and benchmarks.

The brute-force max-flow oracle and the property-based tests need
families of graphs with known structure: layered DAGs resembling
collapsed trace graphs, recursive two-terminal series-parallel graphs
(whose max flow the reduction of Section 5.1 computes exactly), and
grids.
"""

from __future__ import annotations

import random

from .flowgraph import FlowGraph


def layered_dag(layers, width, max_capacity=64, edge_prob=0.6, seed=0):
    """A random layered DAG from source to sink.

    ``layers`` interior layers of ``width`` nodes each; edges run from
    each layer to the next with probability ``edge_prob`` and capacity
    uniform in [1, max_capacity].  Source feeds the whole first layer,
    the last layer drains into the sink.  Every interior node is also
    given one guaranteed forward edge so the graph stays connected.
    """
    rng = random.Random(seed)
    g = FlowGraph()
    previous = [g.source]
    for layer in range(layers):
        current = [g.add_node() for _ in range(width)]
        for u in previous:
            wired = False
            for v in current:
                if rng.random() < edge_prob:
                    g.add_edge(u, v, rng.randint(1, max_capacity))
                    wired = True
            if not wired:
                g.add_edge(u, rng.choice(current), rng.randint(1, max_capacity))
        previous = current
    for u in previous:
        g.add_edge(u, g.sink, rng.randint(1, max_capacity))
    return g


def series_parallel(depth, max_capacity=64, seed=0):
    """A random two-terminal series-parallel graph with known max flow.

    Built by the standard recursive grammar (a single edge, a series
    composition, or a parallel composition); returns ``(graph, flow)``
    where ``flow`` is the exact max-flow value, computed alongside the
    construction (series: min; parallel: sum).
    """
    rng = random.Random(seed)
    g = FlowGraph()

    def build(u, v, d):
        if d <= 0 or rng.random() < 0.25:
            cap = rng.randint(1, max_capacity)
            g.add_edge(u, v, cap)
            return cap
        if rng.random() < 0.5:
            mid = g.add_node()
            return min(build(u, mid, d - 1), build(mid, v, d - 1))
        return build(u, v, d - 1) + build(u, v, d - 1)

    flow = build(g.source, g.sink, depth)
    return g, flow


def grid_graph(rows, cols, max_capacity=64, seed=0):
    """A directed grid: flow enters column 0, moves right/down, exits.

    Grids are the classic worst-ish case for augmenting-path algorithms
    and are decidedly not series-parallel, standing in for the paper's
    irreducible bzip2 core.
    """
    rng = random.Random(seed)
    g = FlowGraph()
    nodes = [[g.add_node() for _ in range(cols)] for _ in range(rows)]
    for r in range(rows):
        g.add_edge(g.source, nodes[r][0], rng.randint(1, max_capacity))
        g.add_edge(nodes[r][cols - 1], g.sink, rng.randint(1, max_capacity))
        for c in range(cols - 1):
            g.add_edge(nodes[r][c], nodes[r][c + 1], rng.randint(1, max_capacity))
    for r in range(rows - 1):
        for c in range(cols):
            g.add_edge(nodes[r][c], nodes[r + 1][c], rng.randint(1, max_capacity))
    return g


def random_dag(num_nodes, num_edges, max_capacity=64, seed=0):
    """A random DAG in topological order with source/sink attachments.

    Useful as a fuzz target: every interior node is reachable from the
    source and can reach the sink, so max flow is usually non-trivial.
    """
    rng = random.Random(seed)
    g = FlowGraph()
    interior = [g.add_node() for _ in range(num_nodes)]
    order = [g.source] + interior + [g.sink]
    for u in interior:
        g.add_edge(g.source, u, rng.randint(0, max_capacity))
        g.add_edge(u, g.sink, rng.randint(0, max_capacity))
    for _ in range(num_edges):
        i = rng.randrange(len(order) - 1)
        j = rng.randrange(i + 1, len(order))
        g.add_edge(order[i], order[j], rng.randint(1, max_capacity))
    return g
