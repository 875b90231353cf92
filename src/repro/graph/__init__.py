"""Flow-network substrate: graphs, max-flow, min-cut, collapsing.

This package implements the graph-theoretic half of the paper: the
capacitated flow networks that model executions (Section 2), the maximum
flow computation that bounds information leakage (Section 5), the min-cut
extraction that yields checkable policies (Section 6.1), and the
label-driven collapsing/combining of Sections 3.2 and 5.2.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".flowgraph": ("INF", "Edge", "EdgeLabel", "FlowGraph"),
    ".maxflow": ("ResidualNetwork", "dinic_max_flow"),
    ".mincut": ("CutEdge", "MinCut", "min_cut", "min_cut_from_residual"),
    ".collapse": ("CollapseStats", "OnlineCollapser", "collapse_graph",
                  "collapse_graph_online", "collapse_graphs", "dedup_safe"),
    ".seriesparallel": ("SPReduction", "reduce_series_parallel"),
    ".unionfind": ("UnionFind",),
    ".dot": ("to_dot", "write_dot"),
    ".serialize": ("dump_graph", "dumps_graph", "graph_digest", "load_graph",
                   "read_graph", "save_graph", "text_digest"),
})

__all__ = [
    "INF", "Edge", "EdgeLabel", "FlowGraph",
    "ResidualNetwork", "dinic_max_flow",
    "CutEdge", "MinCut", "min_cut", "min_cut_from_residual",
    "CollapseStats", "OnlineCollapser", "collapse_graph",
    "collapse_graph_online", "collapse_graphs", "dedup_safe",
    "SPReduction", "reduce_series_parallel",
    "UnionFind",
    "to_dot", "write_dot",
    "dump_graph", "dumps_graph", "graph_digest", "load_graph",
    "read_graph", "save_graph", "text_digest",
]
