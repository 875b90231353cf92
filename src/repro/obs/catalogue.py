"""The metrics contract: every metric the pipeline may emit.

This module is the single source of truth for metric *names* and their
semantics.  ``docs/observability.md`` documents the same catalogue for
humans, and a drift test asserts the two agree, so an instrumentation
change that invents a new name without documenting it (or vice versa)
fails the suite.  :class:`~repro.obs.metrics.Metrics` also rejects any
name not listed here at runtime.

Kinds:

* ``counter`` -- monotonically accumulating integer (events, bits).
* ``gauge``   -- last-written (or max-tracked) point-in-time value.
* ``timer``   -- accumulated wall-clock seconds.  The ``phase.<p>.seconds``
  timers pair with a ``phase.<p>.calls`` counter maintained by the same
  context manager; free-standing timers (``batch.*``) accumulate via
  :meth:`~repro.obs.metrics.Metrics.add_seconds`.
* ``histogram`` -- a distribution over fixed power-of-two buckets, fed
  via :meth:`~repro.obs.metrics.Metrics.observe`: an observation ``v``
  lands in the bucket whose key is the integer exponent ``e`` with
  ``2**(e-1) <= v < 2**e`` (clamped to ±:data:`HISTOGRAM_MAX_EXPONENT`;
  non-positive values land in the lowest bucket).  Snapshot value is a
  ``{exponent: count}`` dict; merging adds bucket-wise.

Stability: ``stable`` names follow the usual deprecation dance before
changing meaning; ``experimental`` names may change in any release.
"""

from __future__ import annotations

COUNTER = "counter"
GAUGE = "gauge"
TIMER = "timer"
HISTOGRAM = "histogram"

#: Histogram bucket exponents are clamped to ±this value, so every
#: snapshot's buckets come from one fixed, finite key set.
HISTOGRAM_MAX_EXPONENT = 32

#: Pipeline phases timed by ``Metrics.phase(name)``; each contributes a
#: ``phase.<name>.seconds`` timer and a ``phase.<name>.calls`` counter.
PHASES = ("trace", "collapse", "solve", "mincut", "measure")


class MetricSpec:
    """One catalogued metric: its kind, unit, stability, and meaning."""

    __slots__ = ("name", "kind", "unit", "stability", "description")

    def __init__(self, name, kind, unit, stability, description):
        self.name = name
        self.kind = kind
        self.unit = unit
        self.stability = stability
        self.description = description

    @property
    def zero(self):
        """The metric's initial snapshot value (a fresh object per call)."""
        if self.kind == TIMER:
            return 0.0
        if self.kind == HISTOGRAM:
            return {}
        return 0

    def __repr__(self):
        return "MetricSpec(%r, %s, %s, %s)" % (self.name, self.kind,
                                               self.unit, self.stability)


def _specs():
    c, g = COUNTER, GAUGE
    entries = [
        # Trace construction (TraceBuilder event stream, any frontend).
        (c, "trace.operations", "events", "stable",
         "operation events recorded by the trace builder"),
        (c, "trace.implicit_flows", "events", "stable",
         "implicit-flow edges added (branches and indexed accesses)"),
        (c, "trace.outputs", "events", "stable",
         "public output events recorded"),
        (c, "trace.secret_input_bits", "bits", "stable",
         "total secret bits introduced at inputs"),
        (c, "trace.tainted_output_bits", "bits", "stable",
         "bits a plain tainting analysis would report at outputs"),
        # Python frontend (repro.pytrace.Session).
        (c, "pytrace.shadow_ops", "events", "stable",
         "shadow-transfer evaluations (binary/unary ops on tracked values)"),
        (c, "pytrace.implicit_events", "events", "stable",
         "branch/index events on tracked values observed by Session"),
        (g, "pytrace.enclosure_depth_max", "regions", "stable",
         "deepest enclosure-region nesting reached in a session"),
        # FlowLang frontend (repro.lang).
        (c, "lang.compile_cache_hits", "hits", "experimental",
         "compiled-program cache hits (compile_cached, keyed by source "
         "hash + filename)"),
        # Fast backend (repro.shadow.fast + frontend fast paths).
        (c, "shadow.fast.batch_ops", "calls", "experimental",
         "bulk shadow-propagation calls taken by the fast backend "
         "(secret_values batches, bulk secret array reads)"),
        (c, "shadow.fast.batch_values", "values", "experimental",
         "individual values processed through fast-backend bulk calls"),
        # Collapsing (repro.graph.collapse).
        (c, "collapse.runs", "calls", "stable",
         "collapse/combine invocations"),
        (g, "collapse.nodes_before", "nodes", "stable",
         "node count entering the most recent collapse"),
        (g, "collapse.nodes_after", "nodes", "stable",
         "node count leaving the most recent collapse"),
        (g, "collapse.edges_before", "edges", "stable",
         "edge count entering the most recent collapse"),
        (g, "collapse.edges_after", "edges", "stable",
         "edge count leaving the most recent collapse"),
        (c, "collapse.label_merge_hits", "edges", "stable",
         "edges folded into an already-seen label bucket"),
        # Online collapsing (repro.core.tracker.CollapsingTraceBuilder).
        (c, "collapse.online.builds", "calls", "experimental",
         "online-collapsed traces finished"),
        (c, "collapse.online.merge_hits", "edges", "experimental",
         "trace edges folded into an existing bucket while tracing"),
        (g, "collapse.online.nodes_live", "nodes", "experimental",
         "live node count of the most recently finished online trace"),
        (g, "collapse.online.edges_live", "edges", "experimental",
         "live edge-bucket count of the most recently finished "
         "online trace"),
        (g, "collapse.online.nodes_peak", "nodes", "experimental",
         "largest live node count seen across online traces"),
        # Max-flow solver (repro.graph.maxflow.dinic_max_flow).
        (c, "maxflow.solves", "calls", "stable",
         "Dinic max-flow solves"),
        (c, "maxflow.dinic.bfs_phases", "phases", "stable",
         "Dinic level-graph (BFS) phases"),
        (c, "maxflow.dinic.augmenting_paths", "paths", "stable",
         "Dinic augmenting paths pushed across all blocking flows"),
        (HISTOGRAM, "maxflow.dinic.path_length", "edges", "experimental",
         "distribution of Dinic augmenting-path lengths (arcs per path), "
         "power-of-two buckets"),
        # Measurement results (repro.core.measure).
        (g, "graph.nodes", "nodes", "stable",
         "node count of the most recently solved graph"),
        (g, "graph.edges", "edges", "stable",
         "edge count of the most recently solved graph"),
        (g, "flow.bits", "bits", "stable",
         "most recent max-flow bound"),
        (g, "mincut.edges", "edges", "stable",
         "edge count of the most recent minimum cut"),
        # Batch fan-out (repro.batch).
        (c, "batch.jobs", "jobs", "experimental",
         "measurement jobs executed by the batch engine"),
        (g, "batch.workers", "processes", "experimental",
         "worker pool size of the most recent batch fan-out (1 when "
         "in-process)"),
        (TIMER, "batch.worker_seconds", "seconds", "experimental",
         "accumulated in-job wall time across batch jobs (all workers)"),
        (HISTOGRAM, "batch.job_seconds", "seconds", "experimental",
         "distribution of per-job wall times across batch jobs, "
         "power-of-two buckets"),
        (c, "batch.graphs_bytes", "bytes", "experimental",
         "serialized flow-graph bytes shipped between batch workers and "
         "the parent"),
        (TIMER, "batch.merge_seconds", "seconds", "experimental",
         "parent-side wall time merging worker graphs and results"),
        (c, "batch.failures", "jobs", "experimental",
         "batch jobs that ended in a JobFailure record (worker "
         "exception, or transient-retry budget exhausted)"),
        (c, "batch.retries", "jobs", "experimental",
         "job re-submissions after a transient failure (timeout, broken "
         "pool, pickling transport)"),
        (c, "batch.timeouts", "jobs", "experimental",
         "job attempts cut off by the per-job wall-clock timeout"),
        (c, "batch.pool_restarts", "restarts", "experimental",
         "worker-pool teardown/resurrection cycles after a broken pool "
         "or a timed-out (hung) job"),
        (c, "batch.quarantined", "jobs", "experimental",
         "jobs dropped from rotation after exhausting their transient "
         "retry budget"),
        # Shard store (repro.store) and corpus combine (tree reduction).
        (c, "store.shards_written", "shards", "experimental",
         "distinct content-addressed shard blobs written to a store "
         "(corpus puts and intermediate merge objects)"),
        (c, "store.dedup_hits", "shards", "experimental",
         "store puts whose digest was already present (no blob write)"),
        (c, "store.bytes", "bytes", "experimental",
         "shard-blob bytes written to stores (dedup hits write none)"),
        (g, "combine.tree_levels", "levels", "experimental",
         "reduction levels of the most recent tree-reduction combine "
         "(the parent-side root fold counts as one)"),
        (c, "combine.kraft_updates", "updates", "experimental",
         "incremental Kraft accounting updates: recorded anytime-bound "
         "points after the corpus is sealed (merges, drops, the final "
         "exact solve)"),
        # Process-resource sampling (repro.obs.resources).
        (g, "resource.rss_bytes", "bytes", "experimental",
         "resident set size at the most recent resource sample"),
        (g, "resource.cpu_seconds", "seconds", "experimental",
         "accumulated process CPU time (user+system) at the most "
         "recent resource sample"),
        (g, "resource.open_fds", "fds", "experimental",
         "open file descriptors at the most recent resource sample"),
        (g, "resource.gc_collections", "collections", "experimental",
         "total garbage collections (all generations) at the most "
         "recent resource sample"),
        (g, "resource.graph_nodes_live", "nodes", "experimental",
         "summed live node count of online collapsers tracing at the "
         "most recent resource sample"),
        (g, "resource.graph_edges_live", "edges", "experimental",
         "summed live edge-bucket count of online collapsers tracing "
         "at the most recent resource sample"),
        # Continuous telemetry export (repro.obs.export).
        (c, "obs.export.flushes", "flushes", "experimental",
         "completed telemetry flushes (periodic and final)"),
        (c, "obs.export.bytes", "bytes", "experimental",
         "bytes written to the telemetry directory by flushes"),
        (c, "obs.export.errors", "errors", "experimental",
         "telemetry flushes that failed (the exporter keeps running)"),
        # Measurement service (repro.serve).
        (c, "serve.admitted", "jobs", "experimental",
         "jobs accepted by the measurement service's admission "
         "controller and journaled into the queue"),
        (c, "serve.rejected", "jobs", "experimental",
         "job submissions refused by admission control (backpressure, "
         "per-tenant caps, load shedding, or a drain in progress)"),
        (c, "serve.drained", "jobs", "experimental",
         "jobs checkpointed and left unacknowledged by a graceful "
         "drain (they resume on the next start)"),
        (c, "serve.replayed", "jobs", "experimental",
         "unacknowledged jobs re-enqueued from the queue journal at "
         "service start"),
        (g, "serve.queue_depth", "jobs", "experimental",
         "jobs currently queued (accepted, not yet running) in the "
         "measurement service"),
    ]
    phase_doc = {
        "trace": "instrumented execution (FlowLang VM run)",
        "collapse": "graph collapsing / multi-run combination",
        "solve": "max-flow computation",
        "mincut": "minimum-cut extraction from the residual",
        "measure": "end-to-end measure_graph / measure_runs",
    }
    for phase in PHASES:
        entries.append((TIMER, "phase.%s.seconds" % phase, "seconds",
                        "stable",
                        "accumulated wall time: %s" % phase_doc[phase]))
        entries.append((COUNTER, "phase.%s.calls" % phase, "calls",
                        "stable",
                        "times the %s phase ran" % phase))
    return entries


#: name -> :class:`MetricSpec`; insertion order is the canonical
#: rendering order for snapshots, tables, and the docs catalogue.
CATALOGUE = {}
for _kind, _name, _unit, _stability, _description in _specs():
    CATALOGUE[_name] = MetricSpec(_name, _kind, _unit, _stability,
                                  _description)
del _kind, _name, _unit, _stability, _description


def snapshot_keys():
    """All keys a full snapshot contains, in canonical order."""
    return list(CATALOGUE)
