"""Flow-network substrate: graphs, max-flow, min-cut, collapsing.

This package implements the graph-theoretic half of the paper: the
capacitated flow networks that model executions (Section 2), the maximum
flow computation that bounds information leakage (Section 5), the min-cut
extraction that yields checkable policies (Section 6.1), and the
label-driven collapsing/combining of Sections 3.2 and 5.2.
"""

from .flowgraph import INF, Edge, EdgeLabel, FlowGraph
from .maxflow import ResidualNetwork, WarmStart, dinic_max_flow
from .mincut import CutEdge, MinCut, min_cut, min_cut_from_residual
from .collapse import (CollapseStats, OnlineCollapser, collapse_graph,
                       collapse_graph_online, collapse_graphs, dedup_safe)
from .seriesparallel import SPReduction, reduce_series_parallel
from .unionfind import UnionFind
from .dot import to_dot, write_dot
from .serialize import (dump_graph, dump_graph_binary, dumps_graph,
                        graph_digest, load_graph, load_graph_binary,
                        read_graph, read_graph_binary, save_graph,
                        save_graph_binary, text_digest)

__all__ = [
    "INF", "Edge", "EdgeLabel", "FlowGraph",
    "ResidualNetwork", "WarmStart", "dinic_max_flow",
    "CutEdge", "MinCut", "min_cut", "min_cut_from_residual",
    "CollapseStats", "OnlineCollapser", "collapse_graph",
    "collapse_graph_online", "collapse_graphs", "dedup_safe",
    "SPReduction", "reduce_series_parallel",
    "UnionFind",
    "to_dot", "write_dot",
    "dump_graph", "dump_graph_binary", "dumps_graph", "graph_digest",
    "load_graph", "load_graph_binary", "read_graph", "read_graph_binary",
    "save_graph", "save_graph_binary", "text_digest",
]
