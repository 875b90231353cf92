"""Soundness across multiple runs (Section 3).

The paper defines a set of per-run flow bounds k(i) to be *sound* when a
uniquely decodable code exists whose i-th code word has length k(i) --
equivalently (Kraft's inequality) when sum_i 2**-k(i) <= 1.  Bounds
computed independently per run can violate this (the min(8, n+1) example
of Section 3.2: sum over n of 2**-min(8, n+1) = 503/256 > 1); combining
the runs' graphs before solving restores soundness.

This module provides the Kraft arithmetic (exactly, with
:class:`fractions.Fraction`) plus helpers that demonstrate/repair the
inconsistency.
"""

from __future__ import annotations

from fractions import Fraction

from .. import obs
from ..graph.collapse import CollapseStats, collapse_graphs
from ..graph.flowgraph import INF
from ..graph.maxflow import WarmStart, dinic_max_flow
from ..graph.mincut import min_cut_from_residual
from .measure import _publish
from .report import FlowReport


def kraft_sum(bounds):
    """Exact value of sum_i 2**-k(i) for integer bit bounds ``bounds``."""
    total = Fraction(0)
    for k in bounds:
        if k < 0:
            raise ValueError("negative flow bound %r" % (k,))
        total += Fraction(1, 2 ** k)
    return total


def kraft_satisfied(bounds):
    """Whether a uniquely decodable code with these lengths exists."""
    return kraft_sum(bounds) <= 1


def code_lengths_for(num_messages):
    """Minimum uniform code length for ``num_messages`` distinct messages.

    Section 3.1: k bits distinguish 2**k possibilities, so N messages
    need ceil(log2 N) bits each.
    """
    if num_messages < 1:
        raise ValueError("need at least one message")
    return (num_messages - 1).bit_length()


class StreamingCombiner:
    """Fold run graphs in one at a time, re-solving incrementally.

    The streaming counterpart of
    :func:`~repro.core.measure.measure_runs`: each :meth:`add` combines
    the new run's graph into the accumulated combined graph (the same
    label-driven union-find as the one-shot path -- contiguous-order
    associativity makes the final graph identical to combining the whole
    list at once) and re-solves.  Because the merged graph is the old
    graph plus summed capacities, the previous solve's residual is a
    feasible starting flow, so each re-solve warm-starts from it
    (:class:`~repro.graph.maxflow.WarmStart`) and only augments the
    increment -- near-free when a run adds little new coverage.

    After every ``add`` the current Kraft-sound bound over all runs so
    far is available as :attr:`bits` -- an *anytime* bound that only the
    streaming path can provide.  The bound and the minimum cut are
    identical to the one-shot combination's: the max-flow value is
    unique, and the cut's source side is the set of nodes reachable in
    the residual network, which is the same for every maximum flow
    (``docs/backends.md`` has the full argument).

    Args:
        context_sensitive: merge-key sensitivity, as for
            :func:`~repro.graph.collapse.collapse_graphs`.
        warm_start: seed each re-solve from the previous residual;
            disable to re-solve cold every time (the reference
            behaviour the equivalence suite compares against).
    """

    def __init__(self, context_sensitive=True, warm_start=True):
        self.context_sensitive = context_sensitive
        self.warm_start = warm_start
        self.graph = None
        self.residual = None
        self.bits = None
        self.runs = 0
        self._warm = None
        self._original_nodes = 0
        self._original_edges = 0

    def add(self, graph, times=1, original_nodes=None, original_edges=None,
            run_count=None):
        """Fold one run's graph in and re-solve; returns the new bound.

        ``times > 1`` folds that many repeats of the graph in one step
        (the shard-store dedup path), via the same
        ``multiplicities`` contract as
        :func:`~repro.graph.collapse.collapse_graphs`.
        ``original_nodes``/``original_edges``/``run_count`` override the
        pre-collapse size and run count attributed to this addition (per
        repeat) when ``graph`` is itself already a combination — the
        tree-reduction merge uses this to keep :attr:`stats` and
        :attr:`runs` counting the true corpus size.
        """
        if times < 1:
            raise ValueError("times must be >= 1, got %r" % (times,))
        metrics = obs.get_metrics()
        with metrics.phase("collapse"):
            if self.graph is None:
                combined, _ = collapse_graphs(
                    [graph], context_sensitive=self.context_sensitive,
                    multiplicities=[times])
            else:
                combined, _ = collapse_graphs(
                    [self.graph, graph],
                    context_sensitive=self.context_sensitive,
                    multiplicities=[1, times])
        if original_nodes is None:
            original_nodes = graph.num_nodes
        if original_edges is None:
            original_edges = graph.num_edges
        self._original_nodes += times * original_nodes
        self._original_edges += times * original_edges
        self.runs += times * (1 if run_count is None else run_count)
        value, residual = dinic_max_flow(
            combined, warm_start=self._warm if self.warm_start else None)
        self.graph = combined
        self.residual = residual
        self.bits = value
        self._warm = WarmStart(combined, residual)
        return value

    @property
    def stats(self):
        """Cumulative :class:`CollapseStats` over every added graph."""
        if self.graph is None:
            raise ValueError("no graphs added yet")
        return CollapseStats(self._original_nodes, self._original_edges,
                             self.graph.num_nodes, self.graph.num_edges)

    def report(self, stats_list=None, warnings=None, failures=()):
        """Package the current state as a
        :class:`~repro.core.report.FlowReport`, mirroring
        :func:`~repro.core.measure.measure_runs`' assembly."""
        if self.graph is None:
            raise ValueError("no graphs added yet")
        metrics = obs.get_metrics()
        tracer = obs.get_tracer()
        with metrics.phase("mincut"):
            cut = min_cut_from_residual(self.graph, self.residual)
        merged_stats = {}
        for stats in stats_list or []:
            for key, val in stats.items():
                merged_stats[key] = merged_stats.get(key, 0) + val
        collapse_stats = self.stats
        collapse_stats.failures = list(failures)
        if metrics.enabled:
            _publish(metrics, self.graph, self.bits, cut)
        return FlowReport(
            bits=self.bits,
            mincut=cut,
            graph=self.graph,
            secret_input_bits=merged_stats.get("secret_input_bits"),
            tainted_output_bits=merged_stats.get("tainted_output_bits"),
            collapse_stats=collapse_stats,
            stats=merged_stats,
            warnings=warnings,
            metrics=metrics.snapshot() if metrics.enabled else None,
            trace_spans=tracer.snapshot() if tracer.enabled else None,
            partial=bool(collapse_stats.failures),
        )


class IncrementalKraft:
    """Sound anytime upper bound on a corpus combine, updated as
    shards merge.

    The tree-reduction merge only knows the exact Kraft-sound bound
    (the combined max-flow) at the root; this accountant gives a sound
    bound at *every* moment in between, from two globally consistent
    structural cuts.  For each live merge group ``g`` (initially one
    per shard, merged as reduction proceeds) it tracks the group
    graph's source-cut and sink-cut capacities; since every s-t flow in
    the final combined graph decomposes into flows crossing each
    group's source (and sink) cut,

        bound = min(sum_g source_cap(g), sum_g sink_cap(g))

    is an upper bound on the final combined max-flow at all times.
    Merging groups only lowers it (a merged graph's structural cuts
    are at most the sums of its parts' — label merges saturate and
    self-loops drop capacity), so once :meth:`seal` marks the corpus
    complete the recorded :attr:`trail` is monotone nonincreasing and
    every entry is ``>=`` the final exact bound, which
    :meth:`finalize` snaps to.  Note the *per-group min-cut* sum is
    not usable here: merging can unlock capacity across groups, so it
    is a lower trail, not an upper bound.
    """

    def __init__(self):
        self._groups = {}
        self._next_id = 0
        self._src_finite = 0
        self._src_inf = 0
        self._sink_finite = 0
        self._sink_inf = 0
        self._sealed = False
        self._final = None
        self.trail = []
        self.updates = 0

    @staticmethod
    def _scale(capacity, multiplicity):
        if capacity >= INF:
            return INF
        return min(capacity * multiplicity, INF)

    def _account(self, source_cap, sink_cap, sign):
        if source_cap >= INF:
            self._src_inf += sign
        else:
            self._src_finite += sign * source_cap
        if sink_cap >= INF:
            self._sink_inf += sign
        else:
            self._sink_finite += sign * sink_cap

    def admit(self, source_cap, sink_cap, multiplicity=1):
        """Register one shard (``multiplicity`` identical runs) as its
        own merge group; returns the group id."""
        if self._sealed:
            raise ValueError("cannot admit shards after seal()")
        if multiplicity < 1:
            raise ValueError("multiplicity must be >= 1")
        gid = self._next_id
        self._next_id += 1
        caps = (self._scale(source_cap, multiplicity),
                self._scale(sink_cap, multiplicity))
        self._groups[gid] = caps
        self._account(caps[0], caps[1], +1)
        return gid

    @property
    def sealed(self):
        """Whether :meth:`seal` has marked the corpus complete."""
        return self._sealed

    def seal(self):
        """Mark the corpus complete; starts the monotone trail.

        From here on the bound only moves down (merges, drops, the
        final exact solve), so :attr:`trail` is the sound anytime
        sequence the CLI reports.
        """
        self._sealed = True
        self._record()
        return self.bits

    def merge(self, group_ids, source_cap, sink_cap):
        """Replace ``group_ids`` by their merged group, whose combined
        graph has the given structural cut capacities; returns the new
        group id."""
        for gid in group_ids:
            src, sink = self._groups.pop(gid)
            self._account(src, sink, -1)
        gid = self._next_id
        self._next_id += 1
        caps = (min(source_cap, INF), min(sink_cap, INF))
        self._groups[gid] = caps
        self._account(caps[0], caps[1], +1)
        self._record()
        return gid

    def drop(self, group_id):
        """Remove a group whose subtree failed (``on_error="collect"``):
        the bound then covers only the surviving shards."""
        src, sink = self._groups.pop(group_id)
        self._account(src, sink, -1)
        self._record()

    def finalize(self, bits):
        """Snap to the exact combined bound from the root solve."""
        self._final = bits
        self._record()
        return self.bits

    def _record(self):
        if self._sealed:
            bits = self.bits
            self.trail.append(bits)
            self.updates += 1
            metrics = obs.get_metrics()
            if metrics.enabled:
                metrics.incr("combine.kraft_updates")
            obs.get_event_log().event(
                "combine.kraft_update",
                bits=None if bits >= INF else bits,
                groups=len(self._groups))

    @property
    def groups_live(self):
        return len(self._groups)

    @property
    def bits(self):
        """The current sound upper bound (:data:`~repro.graph.flowgraph.INF`
        when both structural cuts are unbounded)."""
        if self._final is not None:
            return self._final
        src = INF if self._src_inf else min(self._src_finite, INF)
        sink = INF if self._sink_inf else min(self._sink_finite, INF)
        return min(src, sink)


def demonstrate_inconsistency(per_run_bounds):
    """Summarize whether independently measured bounds are jointly sound.

    Returns a dict with the exact Kraft sum, a float rendering, and the
    verdict -- the shape of the Section 3.2 discussion, used by the
    consistency benchmark.
    """
    total = kraft_sum(per_run_bounds)
    return {
        "bounds": list(per_run_bounds),
        "kraft_sum": total,
        "kraft_sum_float": float(total),
        "sound": total <= 1,
    }
