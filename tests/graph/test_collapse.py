"""Tests for label-based collapsing / multi-run combining (Sections 3.2, 5.2)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.core.locations import Location
from repro.errors import GraphError
from repro.graph import collapse as collapse_module
from repro.graph.collapse import (CollapseStats, _add_repeated, _edge_key,
                                  collapse_graph, collapse_graphs)
from repro.graph.flowgraph import INF, EdgeLabel, FlowGraph
from repro.graph.generators import (grid_graph, layered_dag, random_dag,
                                    series_parallel)
from repro.graph.maxflow import dinic_max_flow
from repro.graph.serialize import dumps_graph
from repro.graph.unionfind import UnionFind


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


def dict_keyed_collapse(graphs, counts, context_sensitive, span):
    """The dict-keyed union-find collapse the int-indexed one replaced,
    kept verbatim as the oracle: keys ``("n", graph, node)`` for nodes
    and ``("s", label_key)`` / ``("d", label_key)`` for placeholders."""
    uf = UnionFind()
    for gi, g in enumerate(graphs):
        uf.union(("n", 0, g.source), ("n", gi, g.source))
        uf.union(("n", 0, g.sink), ("n", gi, g.sink))
        for e in g.edges:
            key = _edge_key(e.label, context_sensitive)
            if key is None:
                continue
            uf.union(("n", gi, e.tail), ("s", key))
            uf.union(("n", gi, e.head), ("d", key))

    source_root = uf.find(("n", 0, graphs[0].source))
    sink_root = uf.find(("n", 0, graphs[0].sink))
    if source_root == sink_root:
        raise GraphError(
            "collapsing merged the source with the sink: edge labels are "
            "inconsistent with the edges' structural roles")
    combined = FlowGraph()
    node_of_root = {source_root: combined.source, sink_root: combined.sink}

    def node_for(gi, node):
        root = uf.find(("n", gi, node))
        mapped = node_of_root.get(root)
        if mapped is None:
            mapped = combined.add_node()
            node_of_root[root] = mapped
        return mapped

    merged = {}
    label_of = {}
    merge_hits = 0
    original_nodes = sum(m * g.num_nodes for g, m in zip(graphs, counts))
    original_edges = sum(m * g.num_edges for g, m in zip(graphs, counts))
    for gi, g in enumerate(graphs):
        m = counts[gi]
        for e in g.edges:
            tail = node_for(gi, e.tail)
            head = node_for(gi, e.head)
            if tail == head:
                continue
            key = _edge_key(e.label, context_sensitive)
            if key is None:
                bucket = (tail, head, e.label.kind if e.label else None, None)
            else:
                bucket = key
            prev = merged.get(bucket)
            if prev is None:
                prev = 0
                merge_hits += m - 1
            else:
                merge_hits += m
            merged[bucket] = _add_repeated(prev, e.capacity, m)
            if bucket not in label_of:
                label = e.label
                if label is not None and not context_sensitive:
                    label = label.drop_context()
                label_of[bucket] = (tail, head, label)

    for bucket, capacity in merged.items():
        tail, head, label = label_of[bucket]
        combined.add_edge(tail, head, capacity, label)

    stats = CollapseStats(original_nodes, original_edges,
                          combined.num_nodes, combined.num_edges)
    span.set(nodes_before=stats.original_nodes,
             nodes_after=stats.collapsed_nodes,
             edges_before=stats.original_edges,
             edges_after=stats.collapsed_edges)
    metrics = obs.get_metrics()
    if metrics.enabled:
        metrics.incr("collapse.runs")
        metrics.incr("collapse.label_merge_hits", merge_hits)
        metrics.gauge("collapse.nodes_before", stats.original_nodes)
        metrics.gauge("collapse.nodes_after", stats.collapsed_nodes)
        metrics.gauge("collapse.edges_before", stats.original_edges)
        metrics.gauge("collapse.edges_after", stats.collapsed_edges)
    return combined, stats


def labelled_copy(graph, rng):
    """``graph`` with a random mix of labels and capacities.

    Edges get no label, a location-less label, or a label at one of a
    few locations per structural role (source edge, sink edge, inner
    edge), with or without a context.  In one graph of three, about a
    third of the labels take a random role's location instead, which
    may merge the source with the sink.  About one capacity in ten
    becomes ``INF``.
    """
    out = FlowGraph()
    out.add_nodes(graph.num_nodes - 2)
    mixing = rng.choice((0.0, 0.0, 0.3))
    for e in graph.edges:
        pick = rng.random()
        if pick < 0.15:
            label = None
        elif pick < 0.25:
            label = EdgeLabel(None, kind=rng.choice(("data", "chain")))
        else:
            role = ("in" if e.tail == graph.source
                    else "out" if e.head == graph.sink else "mid")
            if rng.random() < mixing:
                role = rng.choice(("in", "out", "mid"))
            label = EdgeLabel(Location(role, rng.randrange(3)),
                              rng.choice((None, 7, 9)),
                              rng.choice(("data", "implicit")))
        capacity = INF if rng.random() < 0.1 else e.capacity
        out.add_edge(e.tail, e.head, capacity, label)
    return out


def random_graph(rng):
    kind = rng.randrange(4)
    seed = rng.randrange(10 ** 6)
    if kind == 0:
        graph = random_dag(rng.randrange(1, 9), rng.randrange(0, 20),
                           seed=seed)
    elif kind == 1:
        graph = layered_dag(rng.randrange(1, 4), rng.randrange(1, 4),
                            seed=seed)
    elif kind == 2:
        graph = grid_graph(rng.randrange(1, 4), rng.randrange(2, 4),
                           seed=seed)
    else:
        graph, _ = series_parallel(rng.randrange(1, 5), seed=seed)
    return labelled_copy(graph, rng)


def collapse_outcome(graphs, counts, context_sensitive):
    """``(dumps_graph text, label merge hits)``, or the GraphError."""
    obs.enable()
    try:
        combined, _ = collapse_graphs(graphs,
                                      context_sensitive=context_sensitive,
                                      multiplicities=counts)
        hits = obs.get_metrics().snapshot()["collapse.label_merge_hits"]
    except GraphError as error:
        return ("GraphError", str(error))
    finally:
        obs.disable()
    return dumps_graph(combined), hits


class TestIntIndexedCollapseMatchesOracle:
    """The int-indexed union-find collapse against the dict-keyed one it
    replaced: same text, same merge hits, same errors."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_random_graphs(self, seed):
        rng = random.Random(seed)
        pool = [random_graph(rng) for _ in range(rng.randrange(1, 4))]
        graphs = [rng.choice(pool) for _ in range(rng.randrange(1, 5))]
        counts = [rng.choice((1, 1, 2, 3)) for _ in graphs]
        for context_sensitive in (True, False):
            got = collapse_outcome(graphs, counts, context_sensitive)
            saved = collapse_module._collapse_graphs
            collapse_module._collapse_graphs = dict_keyed_collapse
            try:
                want = collapse_outcome(graphs, counts, context_sensitive)
            finally:
                collapse_module._collapse_graphs = saved
            assert got == want

    def test_covers_unsafe_multiplicities_and_errors(self):
        # The property's generator reaches every case it is meant to:
        # a repeated graph that is not dedup-safe, and a label set that
        # merges the source with the sink.
        unsafe = errors = 0
        for seed in range(200):
            rng = random.Random(seed)
            graph = random_graph(rng)
            if not collapse_module.dedup_safe(graph):
                unsafe += 1
            try:
                collapse_graphs([graph, graph])
            except GraphError:
                errors += 1
        assert unsafe and errors
