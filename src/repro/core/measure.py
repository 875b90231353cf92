"""Measurement orchestration: trace graph -> max flow -> report.

Ties the pipeline together: optionally collapse the trace graph by code
location (Section 5.2), run the max-flow solver (Section 5), extract the
minimum cut (Section 6.1), and package everything as a
:class:`~repro.core.report.FlowReport`.

When observability is enabled (:func:`repro.obs.enable`), each stage is
timed under ``phase.collapse`` / ``phase.solve`` / ``phase.mincut`` with
the whole call under ``phase.measure``, and the report carries a metrics
snapshot in :attr:`FlowReport.metrics`.  The trace builder's event
counters are *not* republished here: the builder publishes them itself,
exactly once, when :meth:`~repro.core.tracker.TraceBuilder.finish` runs
(see the delta-publishing note in ``docs/observability.md``).  With
tracing enabled (:func:`repro.obs.enable_tracing`), each call runs under
a ``measure.graph`` / ``measure.runs`` span and the report carries the
recorded spans in :attr:`FlowReport.trace_spans`.
"""

from __future__ import annotations

from .. import obs
from ..graph.collapse import CollapseStats, collapse_graphs
from ..graph.maxflow import dinic_max_flow
from ..graph.mincut import min_cut_from_residual
from .modes import COLLAPSE_MODES, MULTI_RUN_COLLAPSE_MODES
from .report import FlowReport


def _publish(metrics, solved, value, cut):
    """Record the result gauges of one measurement.

    The trace builder's ``trace.*`` counters are published by the
    builder itself at ``finish()`` time (delta-tracked, so repeated
    snapshots of one builder never double-count); only the
    point-in-time result gauges belong here.
    """
    metrics.gauge("graph.nodes", solved.num_nodes)
    metrics.gauge("graph.edges", solved.num_edges)
    metrics.gauge("flow.bits", value)
    metrics.gauge("mincut.edges", len(cut.edges))


def measure_graph(graph, collapse="context", stats=None, warnings=None):
    """Measure the information flow bound of a completed trace graph.

    Args:
        graph: a finished :class:`~repro.graph.flowgraph.FlowGraph`.
        collapse: one of :data:`COLLAPSE_MODES`.
        stats: optional event-counter dict from the trace builder,
            carried through to the report.
        warnings: optional list of notes carried through to the report.

    A graph built by an online-collapsing tracker
    (:class:`~repro.core.tracker.CollapsingTraceBuilder`) arrives
    already collapsed — annotated with ``precollapsed`` and
    ``collapse_stats`` — so the post-hoc collapse is skipped: a
    matching ``collapse`` mode (or ``"none"``) solves the graph as-is,
    ``"location"`` on a context-collapsed graph refines it with a
    (cheap, coverage-sized) second collapse, and ``"context"`` on a
    location-collapsed graph raises ``ValueError`` because the context
    hashes are already gone.

    Returns:
        a :class:`FlowReport`.
    """
    if collapse not in COLLAPSE_MODES:
        raise ValueError("collapse must be one of %r, got %r"
                         % (COLLAPSE_MODES, collapse))
    precollapsed = getattr(graph, "precollapsed", None)
    if precollapsed == "location" and collapse == "context":
        raise ValueError(
            "graph was online-collapsed by location; context-sensitive "
            "collapse is no longer possible")
    metrics = obs.get_metrics()
    tracer = obs.get_tracer()
    collapse_stats = None
    solved = graph
    span = tracer.span("measure.graph", collapse=collapse,
                       nodes=graph.num_nodes, edges=graph.num_edges)
    with span, metrics.phase("measure"):
        if precollapsed is not None:
            collapse_stats = getattr(graph, "collapse_stats", None)
            if precollapsed == "context" and collapse == "location":
                with metrics.phase("collapse"):
                    solved, refined = collapse_graphs(
                        [graph], context_sensitive=False)
                if collapse_stats is not None:
                    collapse_stats = CollapseStats(
                        collapse_stats.original_nodes,
                        collapse_stats.original_edges,
                        refined.collapsed_nodes, refined.collapsed_edges)
                else:
                    collapse_stats = refined
        elif collapse != "none":
            with metrics.phase("collapse"):
                solved, collapse_stats = collapse_graphs(
                    [graph], context_sensitive=(collapse == "context"))
        value, residual = dinic_max_flow(solved)
        with metrics.phase("mincut"):
            cut = min_cut_from_residual(solved, residual)
        span.set(bits=value)
    stats = dict(stats or {})
    if metrics.enabled:
        _publish(metrics, solved, value, cut)
    return FlowReport(
        bits=value,
        mincut=cut,
        graph=solved,
        secret_input_bits=stats.get("secret_input_bits"),
        tainted_output_bits=stats.get("tainted_output_bits"),
        collapse_stats=collapse_stats,
        stats=stats,
        warnings=warnings,
        metrics=metrics.snapshot() if metrics.enabled else None,
        trace_spans=tracer.snapshot() if tracer.enabled else None,
    )


def check_multi_run_collapse(collapse):
    """Raise ``ValueError`` unless ``collapse`` is one of
    :data:`MULTI_RUN_COLLAPSE_MODES`: runs merge by label."""
    if collapse not in MULTI_RUN_COLLAPSE_MODES:
        raise ValueError("multi-run collapse must be one of %r, got %r"
                         % (MULTI_RUN_COLLAPSE_MODES, collapse))


def measure_runs(graphs, collapse="context", stats_list=None, warnings=None):
    """Measure several runs *together* (Section 3.2).

    The graphs are combined by edge label before solving, which forces a
    single consistent cut placement across the runs; the resulting bound
    covers the whole set soundly (it is the length of one code word that
    could carry any of the runs' messages... more precisely, the sum of
    per-run flows is feasible in the combined graph).

    This is the serial one-shot reference: one
    :func:`~repro.graph.collapse.collapse_graphs` and one cold
    :func:`~repro.graph.maxflow.dinic_max_flow` solve.  The parallel
    and corpus combine is :func:`repro.batch.combine_store_jobs`, whose
    bound, cut, and combined graph equal this one's.

    Args:
        collapse: one of :data:`MULTI_RUN_COLLAPSE_MODES`; ``"none"``
            raises ``ValueError``, since runs merge by label.
    """
    check_multi_run_collapse(collapse)
    graphs = list(graphs)
    metrics = obs.get_metrics()
    tracer = obs.get_tracer()
    span = tracer.span("measure.runs", runs=len(graphs), collapse=collapse)
    with span, metrics.phase("measure"):
        with metrics.phase("collapse"):
            combined, collapse_stats = collapse_graphs(
                graphs, context_sensitive=collapse == "context")
        value, residual = dinic_max_flow(combined)
        with metrics.phase("mincut"):
            cut = min_cut_from_residual(combined, residual)
        span.set(bits=value)
    merged_stats = {}
    for stats in stats_list or []:
        for key, val in stats.items():
            merged_stats[key] = merged_stats.get(key, 0) + val
    if metrics.enabled:
        _publish(metrics, combined, value, cut)
    return FlowReport(
        bits=value,
        mincut=cut,
        graph=combined,
        secret_input_bits=merged_stats.get("secret_input_bits"),
        tainted_output_bits=merged_stats.get("tainted_output_bits"),
        collapse_stats=collapse_stats,
        stats=merged_stats,
        warnings=warnings,
        metrics=metrics.snapshot() if metrics.enabled else None,
        trace_spans=tracer.snapshot() if tracer.enabled else None,
    )
