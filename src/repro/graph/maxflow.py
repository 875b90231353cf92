"""Maximum-flow computation (Section 5).

The solver is Dinic's blocking-flow method, which is fast on the
shallow, layered graphs produced by collapsing execution traces by code
location.  Its saturated :class:`ResidualNetwork` is what min-cut
extraction (:mod:`.mincut`) reads the canonical cut from.

All capacities are integers, so the computed flows are exact.
"""

from __future__ import annotations

from collections import deque

from .. import obs
from ..errors import GraphError
from .flowgraph import INF


class ResidualNetwork:
    """Forward-star residual representation of a :class:`FlowGraph`.

    Each original edge ``i`` becomes residual arc ``2*i`` and its reverse
    arc ``2*i + 1``; the pairing lets the solver find an arc's partner
    as ``arc ^ 1``.  After a max-flow run, ``flow_on(i)`` reports the flow
    routed over original edge ``i``.
    """

    __slots__ = ("num_nodes", "source", "sink", "head", "cap", "first",
                 "nxt", "_orig_cap")

    def __init__(self, graph):
        n = graph.num_nodes
        m = len(graph.edges)
        self.num_nodes = n
        self.source = graph.source
        self.sink = graph.sink
        self.head = [0] * (2 * m)
        self.cap = [0] * (2 * m)
        self.first = [-1] * n
        self.nxt = [-1] * (2 * m)
        self._orig_cap = [0] * m
        for i, e in enumerate(graph.edges):
            self._orig_cap[i] = e.capacity
            fwd, rev = 2 * i, 2 * i + 1
            self.head[fwd] = e.head
            self.cap[fwd] = e.capacity
            self.nxt[fwd] = self.first[e.tail]
            self.first[e.tail] = fwd
            self.head[rev] = e.tail
            self.cap[rev] = 0
            self.nxt[rev] = self.first[e.head]
            self.first[e.head] = rev

    def flow_on(self, edge_index):
        """Flow routed over original edge ``edge_index``."""
        return self._orig_cap[edge_index] - self.cap[2 * edge_index]

    def residual(self, edge_index):
        """Remaining (unused) capacity on original edge ``edge_index``."""
        return self.cap[2 * edge_index]

    def source_side(self):
        """Nodes reachable from the source along positive-residual arcs.

        This is the S side of the canonical minimum cut (Section 6.1's
        depth-first search over excess capacity): the inclusion-minimal
        source side among all minimum cuts, hence the same for every
        maximum flow.  Meaningful after :func:`dinic_max_flow` has
        saturated the network.
        """
        seen = [False] * self.num_nodes
        seen[self.source] = True
        stack = [self.source]
        head, cap, first, nxt = self.head, self.cap, self.first, self.nxt
        while stack:
            u = stack.pop()
            a = first[u]
            while a != -1:
                v = head[a]
                if cap[a] > 0 and not seen[v]:
                    seen[v] = True
                    stack.append(v)
                a = nxt[a]
        return seen


def dinic_max_flow(graph):
    """Compute the maximum s-t flow of ``graph`` with Dinic's algorithm.

    Returns ``(value, residual)`` where ``residual`` is the saturated
    :class:`ResidualNetwork` (usable for min-cut extraction).  The value
    is exact; ``INF`` is returned when the sink is reachable from the
    source over unbounded-capacity edges only... which cannot happen for
    trace graphs, whose source edges are always finite.

    With observability enabled, accounts wall time to ``phase.solve``,
    reports ``maxflow.dinic.bfs_phases`` / ``.augmenting_paths``, and
    fills the ``maxflow.dinic.path_length`` histogram; with tracing
    enabled, the solve runs under a ``solve.dinic`` span.
    """
    metrics = obs.get_metrics()
    net = ResidualNetwork(graph)
    s, t = net.source, net.sink
    if s == t:
        raise GraphError("source and sink coincide")
    n = net.num_nodes
    head, cap, first, nxt = net.head, net.cap, net.first, net.nxt
    total = 0
    level = [0] * n
    it = [0] * n

    def bfs():
        for i in range(n):
            level[i] = -1
        level[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            a = first[u]
            while a != -1:
                v = head[a]
                if cap[a] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    q.append(v)
                a = nxt[a]
        return level[t] >= 0

    # An explicit-stack blocking-flow DFS, to stay safe on very deep trace
    # graphs (Python's recursion limit is easily hit by an uncollapsed
    # loop of a few thousand iterations).
    def blocking_flow():
        nonlocal aug_paths
        pushed_total = 0
        while True:
            path = []
            u = s
            while True:
                if u == t:
                    bottleneck = min(cap[a] for a in path)
                    for a in path:
                        cap[a] -= bottleneck
                        cap[a ^ 1] += bottleneck
                    pushed_total += bottleneck
                    aug_paths += 1
                    if record_paths:
                        path_lengths.append(len(path))
                    # Retreat to the first saturated arc on the path.
                    for idx, a in enumerate(path):
                        if cap[a] == 0:
                            del path[idx:]
                            break
                    u = head[path[-1]] if path else s
                    continue
                a = it[u]
                advanced = False
                while a != -1:
                    v = head[a]
                    if cap[a] > 0 and level[v] == level[u] + 1:
                        it[u] = a
                        path.append(a)
                        u = v
                        advanced = True
                        break
                    a = nxt[a]
                if advanced:
                    continue
                it[u] = -1
                level[u] = -1
                if not path:
                    return pushed_total
                a = path.pop()
                u = head[a ^ 1]
                it[u] = nxt[it[u]]

    bfs_phases = 0
    aug_paths = 0
    record_paths = metrics.enabled
    path_lengths = []
    with obs.get_tracer().span("solve.dinic", nodes=graph.num_nodes,
                               edges=graph.num_edges) as span:
        with metrics.phase("solve"):
            while bfs():
                bfs_phases += 1
                for i in range(n):
                    it[i] = first[i]
                total += blocking_flow()
                if total >= INF:
                    total = INF
                    break
        span.set(value=total)
    if metrics.enabled:
        metrics.incr("maxflow.solves")
        metrics.incr("maxflow.dinic.bfs_phases", bfs_phases)
        metrics.incr("maxflow.dinic.augmenting_paths", aug_paths)
        for length in path_lengths:
            metrics.observe("maxflow.dinic.path_length", length)
    return total, net
