"""Graph collapsing and multi-run combination (Sections 3.2 and 5.2).

Both operations are the same union-find construction, applied either to a
single run's graph (to shrink it from runtime-sized to coverage-sized,
Section 5.2) or across the graphs of several runs (to force consistent
cut placement, Section 3.2):

    for each edge (u, v) with mergeable label l:
        union(u, placeholder("src", l));  union(v, placeholder("dst", l))

then rebuild the graph over the union-find classes, summing the
capacities of edges that share a label and dropping self-loops.  Any sum
of flows possible in the original graph(s) remains possible in the
combined graph, so bounds computed on it are still sound; cuts are
restricted to consistently-placed ones, which is exactly the point.

Labels can be merged context-sensitively (location + calling-context
hash) or context-insensitively (location only); the latter produces the
smaller graph whose size tracks code coverage.
"""

from __future__ import annotations

from .. import obs
from ..errors import GraphError
from .flowgraph import INF, FlowGraph
from .unionfind import UnionFind


class CollapseStats:
    """Before/after sizes of a collapse, for the Section 5.3 benchmarks.

    ``failures`` is normally empty; a parallel combination running
    under ``on_error="collect"`` records there the
    :class:`~repro.batch.engine.JobFailure` of every chunk it had to
    *exclude* — the combined graph then covers only the surviving
    inputs (see ``FlowReport.partial``).
    """

    __slots__ = ("original_nodes", "original_edges", "collapsed_nodes",
                 "collapsed_edges", "failures")

    def __init__(self, original_nodes, original_edges, collapsed_nodes,
                 collapsed_edges, failures=()):
        self.original_nodes = original_nodes
        self.original_edges = original_edges
        self.collapsed_nodes = collapsed_nodes
        self.collapsed_edges = collapsed_edges
        self.failures = list(failures)

    def __repr__(self):
        return ("CollapseStats(nodes %d->%d, edges %d->%d%s)"
                % (self.original_nodes, self.collapsed_nodes,
                   self.original_edges, self.collapsed_edges,
                   ", %d failed chunks" % len(self.failures)
                   if self.failures else ""))


def _edge_key(label, context_sensitive):
    if label is None:
        return None
    return label.key(context_sensitive)


def dedup_safe(graph, context_sensitive=True):
    """Whether repeats of ``graph`` can combine by multiplicity alone.

    A duplicate of a graph contributes nothing structurally new to
    :func:`collapse_graphs` — no fresh node classes, no fresh edge
    buckets — exactly when every node that appears as an edge endpoint
    (terminals aside) is incident to at least one *mergeable* edge
    (``label.key() is not None``): those placeholders pin the
    duplicate's classes onto the first copy's.  A node reachable only
    through unmergeable edges would allocate a fresh class per copy,
    so such graphs must be folded literally.  Collapsed shards are
    dedup-safe in practice; raw traces with anonymous plumbing edges
    may not be.
    """
    covered = set()
    endpoints = set()
    for e in graph.edges:
        if _edge_key(e.label, context_sensitive) is None:
            endpoints.add(e.tail)
            endpoints.add(e.head)
        else:
            covered.add(e.tail)
            covered.add(e.head)
    endpoints.difference_update(covered)
    endpoints.discard(graph.source)
    endpoints.discard(graph.sink)
    return not endpoints


def _add_repeated(prev, capacity, times):
    """Fold ``times`` adds of ``capacity`` into ``prev`` in O(1).

    Bit-identical to ``times`` iterations of the per-edge saturating
    add (freeze once the running value reaches :data:`INF`), including
    the exact overshoot value at the INF boundary — the same replay
    discipline as :meth:`OnlineCollapser.repeat_edge`.
    """
    if times <= 0 or prev >= INF or capacity == 0:
        return prev
    if capacity >= INF:
        return INF
    total = prev + capacity * times
    if total < INF:
        return total
    # Freeze at the first step that reaches INF.
    steps = (INF - prev + capacity - 1) // capacity
    return prev + min(steps, times) * capacity


def collapse_graphs(graphs, context_sensitive=True, multiplicities=None):
    """Combine one or more flow graphs by merging same-labelled edges.

    Args:
        graphs: iterable of :class:`FlowGraph`; one graph collapses it,
            several combines them (their sources are identified, as are
            their sinks).
        context_sensitive: whether the calling-context hash participates
            in the merge key.
        multiplicities: optional per-graph repeat counts (each ``>= 1``,
            same length as ``graphs``).  ``multiplicities=[3, 1]`` is
            equivalent to passing ``[g0, g0, g0, g1]`` literally but
            folds each :func:`dedup_safe` graph's repeats in O(1) per
            edge bucket — the contract the content-addressed shard
            store relies on.  Graphs that are not dedup-safe are
            expanded and folded literally, so the equivalence holds
            unconditionally.

    Returns:
        ``(combined_graph, stats)`` where ``stats`` is a
        :class:`CollapseStats`.
    """
    graphs = list(graphs)
    if not graphs:
        raise ValueError("collapse_graphs needs at least one graph")
    if multiplicities is None:
        counts = [1] * len(graphs)
    else:
        counts = [int(m) for m in multiplicities]
        if len(counts) != len(graphs):
            raise ValueError(
                "got %d multiplicities for %d graphs"
                % (len(counts), len(graphs)))
        if any(m < 1 for m in counts):
            raise ValueError("multiplicities must be >= 1: %r" % (counts,))
        if any(m > 1 for m in counts):
            expanded, expanded_counts = [], []
            for g, m in zip(graphs, counts):
                if m > 1 and not dedup_safe(g, context_sensitive):
                    expanded.extend([g] * m)
                    expanded_counts.extend([1] * m)
                else:
                    expanded.append(g)
                    expanded_counts.append(m)
            graphs, counts = expanded, expanded_counts
    span = obs.get_tracer().span(
        "collapse.graphs", graphs=len(graphs), runs=sum(counts),
        context_sensitive=bool(context_sensitive))
    with span:
        return _collapse_graphs(graphs, counts, context_sensitive, span)


def _collapse_graphs(graphs, counts, context_sensitive, span):
    uf = UnionFind()
    # Keys: ("n", graph_index, node_id) for concrete nodes and
    # ("s", label_key) / ("d", label_key) for per-label placeholders.
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
        # Labels are meant to identify "the same program location"; a
        # label shared between a source-adjacent and sink-adjacent edge
        # breaks that contract and would silently destroy the graph.
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

    # Accumulate capacities: labelled edges merge by key; unlabelled edges
    # merge by (endpoints, None), which is always sound for max-flow.
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
                continue  # self-loops carry no s-t flow
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
                # Preserve a representative label (context dropped when
                # merging context-insensitively) and the endpoints.
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


def collapse_graph(graph, context_sensitive=True):
    """Collapse a single graph by code location (Section 5.2)."""
    return collapse_graphs([graph], context_sensitive=context_sensitive)


# ----------------------------------------------------------------------
# Online (incremental) collapsing


class _OnlineEdge:
    """One collapsed edge being accumulated: a label key's bucket.

    ``index`` is the edge's position in the most recently materialized
    graph (``None`` until then, and ``None`` for dropped self-loops).
    """

    __slots__ = ("tail", "head", "capacity", "label", "index")

    def __init__(self, tail, head, capacity, label):
        self.tail = tail
        self.head = head
        self.capacity = capacity
        self.label = label
        self.index = None

    def add_capacity(self, amount):
        if self.capacity >= INF or amount >= INF:
            self.capacity = INF
        else:
            self.capacity += amount


class OnlineCollapser:
    """Incremental union-find collapse: same partition as
    :func:`collapse_graphs`, built edge-by-edge while the trace runs.

    The post-hoc collapse unions every edge endpoint with per-label
    placeholders and rebuilds at the end; this class maintains the same
    partition *during* construction, so the live structure is
    coverage-sized (one node class per first-seen label role, one edge
    bucket per label key) instead of runtime-sized.  An edge whose label
    key was already seen adds its capacity to the existing bucket
    (saturating at :data:`~repro.graph.flowgraph.INF`) and unions its
    endpoints with the bucket's; it allocates nothing.

    Node ids are dense ints handed out by :meth:`new_node`, with ids 0/1
    reserved for the source/sink; ids stay valid forever (a later merge
    redirects them through the union-find), so callers can hold on to
    them across arbitrarily many merges.  :meth:`materialize` rebuilds a
    :class:`FlowGraph` over the current classes, dropping self-loops,
    exactly as the post-hoc rebuild does.
    """

    SOURCE = FlowGraph.SOURCE
    SINK = FlowGraph.SINK

    __slots__ = ("context_sensitive", "_uf", "_next_id", "_buckets",
                 "_deferred", "live_nodes", "peak_live_nodes", "merge_hits")

    def __init__(self, context_sensitive=True):
        self.context_sensitive = context_sensitive
        self._uf = UnionFind()
        self._next_id = 2
        #: label key -> :class:`_OnlineEdge`
        self._buckets = {}
        #: unmergeable (``key() is None``) edges, resolved at materialize
        self._deferred = []
        self.live_nodes = 2
        self.peak_live_nodes = 2
        self.merge_hits = 0

    @property
    def live_edges(self):
        """Current collapsed edge count (buckets + unmergeable edges)."""
        return len(self._buckets) + len(self._deferred)

    def new_node(self):
        """Allocate a fresh node class id."""
        node = self._next_id
        self._next_id += 1
        self.live_nodes += 1
        if self.live_nodes > self.peak_live_nodes:
            self.peak_live_nodes = self.live_nodes
        return node

    def _merge(self, a, b):
        uf = self._uf
        if uf.find(a) != uf.find(b):
            uf.union(a, b)
            self.live_nodes -= 1

    def add_edge(self, tail, head, capacity, label=None):
        """Fold one edge in; returns its :class:`_OnlineEdge` bucket."""
        key = None if label is None else label.key(self.context_sensitive)
        if key is None:
            edge = _OnlineEdge(tail, head, capacity, label)
            self._deferred.append(edge)
            return edge
        edge = self._buckets.get(key)
        if edge is None:
            if not self.context_sensitive and label.context is not None:
                label = label.drop_context()
            edge = _OnlineEdge(tail, head, capacity, label)
            self._buckets[key] = edge
            return edge
        self.merge_hits += 1
        edge.add_capacity(capacity)
        self._merge(edge.tail, tail)
        self._merge(edge.head, head)
        return edge

    def repeat_edge(self, label, capacity, times):
        """Fold ``times`` exact repeats of an existing bucket in O(1).

        Equivalent to ``times`` more :meth:`add_edge` calls with the
        bucket's own endpoints: capacity accumulates (saturating at
        :data:`INF` exactly as the per-call path does) and every repeat
        counts as a merge hit; the partition is untouched because the
        endpoints already coincide.  The label must have been seen --
        this is the bulk tail of a batch whose first element went
        through the normal path.
        """
        key = label.key(self.context_sensitive)
        edge = self._buckets.get(key)
        if edge is None:
            raise KeyError("repeat_edge for unseen label %r" % (label,))
        self.merge_hits += times
        total = edge.capacity + capacity * times
        if total >= INF:
            # Replay per-step saturation so the result is bit-identical
            # to the loop even at the INF boundary.
            for _ in range(times):
                edge.add_capacity(capacity)
        else:
            edge.capacity = total
        return edge

    def bucket_for(self, label):
        """The collapsed bucket for ``label``'s merge key, or ``None``."""
        key = label.key(self.context_sensitive)
        return None if key is None else self._buckets.get(key)

    def head_for(self, tail, capacity, label):
        """Edge from ``tail`` to a fresh-or-reused head; returns the head.

        The online analogue of "allocate a node, then edge into it": if
        ``label``'s key was already seen, the existing bucket's head
        class is returned and no node is allocated.
        """
        key = label.key(self.context_sensitive)
        edge = None if key is None else self._buckets.get(key)
        if edge is None:
            head = self.new_node()
            self.add_edge(tail, head, capacity, label)
            return head
        self.merge_hits += 1
        edge.add_capacity(capacity)
        self._merge(edge.tail, tail)
        return self._uf.find(edge.head)

    def capped_pair(self, capacity, label):
        """Node splitting with reuse: ``(inner, outer)`` for ``label``.

        The online analogue of
        :meth:`~repro.graph.flowgraph.FlowGraph.add_capped_node`: a
        repeat of the label reuses the existing pair and adds
        ``capacity`` to the connecting edge.
        """
        key = label.key(self.context_sensitive)
        edge = None if key is None else self._buckets.get(key)
        if edge is None:
            inner = self.new_node()
            outer = self.new_node()
            self.add_edge(inner, outer, capacity, label)
            return inner, outer
        self.merge_hits += 1
        edge.add_capacity(capacity)
        uf = self._uf
        return uf.find(edge.tail), uf.find(edge.head)

    def materialize(self):
        """Rebuild a :class:`FlowGraph` over the current classes.

        Matches the post-hoc rebuild exactly: one node per class
        incident to a collapsed edge, self-loops dropped, unmergeable
        edges bucketed by (endpoints, kind).  Also stamps each bucket's
        ``index`` with its edge index in the returned graph.
        """
        uf = self._uf
        source_root = uf.find(self.SOURCE)
        sink_root = uf.find(self.SINK)
        if source_root == sink_root:
            raise GraphError(
                "collapsing merged the source with the sink: edge labels "
                "are inconsistent with the edges' structural roles")
        graph = FlowGraph()
        node_of_root = {source_root: graph.source, sink_root: graph.sink}

        def node_for(node):
            root = uf.find(node)
            mapped = node_of_root.get(root)
            if mapped is None:
                mapped = graph.add_node()
                node_of_root[root] = mapped
            return mapped

        for edge in self._buckets.values():
            tail = node_for(edge.tail)
            head = node_for(edge.head)
            if tail == head:
                edge.index = None
                continue
            edge.index = graph.add_edge(tail, head, edge.capacity, edge.label)
        # Unmergeable edges fold by (endpoints, kind), as post-hoc.
        merged = {}
        for edge in self._deferred:
            edge.index = None
            tail = node_for(edge.tail)
            head = node_for(edge.head)
            if tail == head:
                continue
            bucket = (tail, head, edge.label.kind if edge.label else None)
            prev = merged.get(bucket)
            if prev is None:
                merged[bucket] = _OnlineEdge(tail, head, edge.capacity,
                                             edge.label)
            else:
                prev.add_capacity(edge.capacity)
        for bucket_edge in merged.values():
            graph.add_edge(bucket_edge.tail, bucket_edge.head,
                           bucket_edge.capacity, bucket_edge.label)
        return graph


def collapse_graph_online(graph, context_sensitive=True):
    """Collapse a finished graph by replaying it through the online path.

    Functionally equivalent to :func:`collapse_graph` (the equivalence
    suite asserts identical node/edge counts, max-flow value, and
    min-cut capacity); exists as the bridge for testing and for callers
    holding a completed graph.  The real win of
    :class:`OnlineCollapser` is collapsing *during* tracing, which
    :class:`~repro.core.tracker.CollapsingTraceBuilder` does.
    """
    collapser = OnlineCollapser(context_sensitive=context_sensitive)
    node_of = {graph.source: OnlineCollapser.SOURCE,
               graph.sink: OnlineCollapser.SINK}

    def map_node(node):
        mapped = node_of.get(node)
        if mapped is None:
            mapped = collapser.new_node()
            node_of[node] = mapped
        return mapped

    for e in graph.edges:
        collapser.add_edge(map_node(e.tail), map_node(e.head), e.capacity,
                           e.label)
    combined = collapser.materialize()
    stats = CollapseStats(graph.num_nodes, graph.num_edges,
                          combined.num_nodes, combined.num_edges)
    return combined, stats
