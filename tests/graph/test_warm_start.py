"""Warm-started incremental max-flow ≡ cold re-solve.

The warm-start contract (``docs/backends.md``): seeding a solve from a
prior residual changes how much augmentation work remains, never the
computed bound.  The max-flow *value* is unique, and so is the
residual-reachable source side -- the inclusion-minimal minimum cut,
whichever maximum flow the solve ends on -- so warm and cold solves
must agree exactly on both, even when several cuts tie at the optimal
capacity.  These suites verify value and cut identity, streaming ≡
one-shot graph identity, and that infeasible carry-overs degrade to a
cold solve instead of a wrong answer.
"""

import io
import random

import pytest

from repro import obs
from repro.core.combine import StreamingCombiner
from repro.core.locations import Location
from repro.core.measure import measure_runs
from repro.core.tracker import CollapsingTraceBuilder, TraceBuilder
from repro.graph.collapse import OnlineCollapser
from repro.graph.flowgraph import INF, EdgeLabel, FlowGraph
from repro.graph.maxflow import WarmStart, dinic_max_flow
from repro.graph.mincut import min_cut_from_residual
from repro.graph.serialize import dump_graph
from repro.lang import execute as lang_execute
from repro.lang import compile_cached
from repro.shadow import BACKENDS


BRANCHY = """
fn main() {
    var buf: u8[32];
    var n: u32 = read_secret(buf, 32);
    var acc: u8 = 0;
    var i: u32 = 0;
    while (i < n) {
        if (buf[i] > 127) {
            acc = acc + 1;
        } else {
            acc = acc ^ buf[i];
        }
        i = i + 1;
    }
    output(acc);
}
"""


def graph_text(graph):
    buffer = io.StringIO()
    dump_graph(graph, buffer)
    return buffer.getvalue()


def trace_graphs(seed, count, source=BRANCHY, backend=None):
    rng = random.Random(seed)
    compiled = compile_cached(source)
    graphs = []
    for _ in range(count):
        secret = bytes(rng.randrange(256)
                       for _ in range(rng.randrange(1, 24)))
        tracker = TraceBuilder()
        _vm, graph = lang_execute(compiled, secret, tracker=tracker,
                                  backend=backend)
        graphs.append(graph)
    return graphs


class TestRepeatEdge:
    def _collapser_with_edge(self, capacity=3):
        collapser = OnlineCollapser(context_sensitive=True)
        label = EdgeLabel(Location("u", 1, "x"), None, "value")
        tail = collapser.new_node()
        head = collapser.new_node()
        collapser.add_edge(tail, head, capacity, label)
        return collapser, label

    def test_unseen_label_raises(self):
        collapser, _ = self._collapser_with_edge()
        other = EdgeLabel(Location("u", 9, "y"), None, "value")
        with pytest.raises(KeyError):
            collapser.repeat_edge(other, 1, 2)

    def test_matches_reference_loop(self):
        bulk, label = self._collapser_with_edge(capacity=3)
        edge = bulk.repeat_edge(label, 3, 5)
        assert edge.capacity == 3 + 3 * 5

        loop, label2 = self._collapser_with_edge(capacity=3)
        for _ in range(5):
            loop.repeat_edge(label2, 3, 1)
        assert loop.merge_hits == bulk.merge_hits
        assert edge.capacity == loop.repeat_edge(label2, 0, 0).capacity

    def test_inf_saturation_matches_reference(self):
        # Near the INF ceiling the bulk shortcut must saturate exactly
        # the way repeated add_capacity calls do.
        step = INF // 3 + 1
        bulk, label = self._collapser_with_edge(capacity=1)
        bulk_edge = bulk.repeat_edge(label, step, 4)

        ref, label2 = self._collapser_with_edge(capacity=1)
        ref_edge = None
        for _ in range(4):
            ref_edge = ref.repeat_edge(label2, step, 1)
        assert bulk_edge.capacity == ref_edge.capacity


class TestWarmStartSolve:
    @pytest.mark.parametrize("seed", [31, 32, 33])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_incremental_value_matches_cold(self, seed, backend):
        # The contract holds on graphs traced under either backend.
        graphs = trace_graphs(seed, 6, backend=backend)
        from repro.graph.collapse import collapse_graphs

        warm = None
        combined = None
        for graph in graphs:
            pair = [combined, graph] if combined is not None else [graph]
            combined, _ = collapse_graphs(pair)
            warm_value, warm_net = dinic_max_flow(combined,
                                                  warm_start=warm)
            cold_value, cold_net = dinic_max_flow(combined)
            assert warm_value == cold_value
            assert warm_net.source_side() == cold_net.source_side()
            warm_cut = min_cut_from_residual(combined, warm_net)
            cold_cut = min_cut_from_residual(combined, cold_net)
            assert warm_cut.capacity == cold_cut.capacity == warm_value
            warm = WarmStart(combined, warm_net)

    def test_unrelated_graph_falls_back_cold(self):
        graphs = trace_graphs(41, 2)
        from repro.graph.collapse import collapse_graphs
        first, _ = collapse_graphs([graphs[0]])
        value_first, net_first = dinic_max_flow(first)

        # A graph that did NOT grow out of ``first``: carried flow
        # cannot be conserved, so the solve must fall back cold and
        # still produce the right value.
        unrelated, _ = collapse_graphs([graphs[1]])
        obs.enable()
        try:
            warm_value, _ = dinic_max_flow(
                unrelated, warm_start=WarmStart(first, net_first))
            snap = obs.get_metrics().snapshot()
        finally:
            obs.disable()
        cold_value, _ = dinic_max_flow(unrelated)
        assert warm_value == cold_value
        assert snap["maxflow.warm_start.hits"] + \
            snap["maxflow.warm_start.fallbacks"] == 1

    def test_hit_counters(self):
        graphs = trace_graphs(47, 4)
        obs.enable()
        try:
            combiner = StreamingCombiner()
            for graph in graphs:
                combiner.add(graph)
            snap = obs.get_metrics().snapshot()
        finally:
            obs.disable()
        # The first solve has no prior residual; the rest warm-start.
        assert snap["maxflow.warm_start.hits"] == len(graphs) - 1
        assert snap["maxflow.warm_start.fallbacks"] == 0
        assert snap["maxflow.warm_start.reused_bits"] >= 0


class TestStreamingCombiner:
    @pytest.mark.parametrize("seed,warm", [(51, True), (51, False),
                                           (52, True)])
    def test_streaming_equals_one_shot(self, seed, warm):
        graphs = trace_graphs(seed, 5)
        one_shot = measure_runs(graphs)

        combiner = StreamingCombiner(warm_start=warm)
        for graph in graphs:
            combiner.add(graph)
        report = combiner.report()

        assert report.bits == one_shot.bits
        assert graph_text(report.graph) == graph_text(one_shot.graph)
        assert report.mincut.capacity == one_shot.mincut.capacity
        assert combiner.stats.original_nodes == \
            one_shot.collapse_stats.original_nodes
        assert combiner.stats.original_edges == \
            one_shot.collapse_stats.original_edges

    def test_anytime_bits_are_each_runs_sound_bound(self):
        graphs = trace_graphs(61, 4)
        combiner = StreamingCombiner()
        for k, graph in enumerate(graphs, start=1):
            bits = combiner.add(graph)
            assert bits == combiner.bits
            assert bits == measure_runs(graphs[:k]).bits
            assert combiner.runs == k

    def test_empty_combiner_rejects_report(self):
        combiner = StreamingCombiner()
        with pytest.raises(ValueError):
            combiner.report()
        with pytest.raises(ValueError):
            _ = combiner.stats


class TestBatchWarmStart:
    def test_batch_warm_equals_one_shot(self):
        from repro.batch import measure_program_runs
        rng = random.Random(71)
        secrets = [bytes(rng.randrange(256)
                         for _ in range(rng.randrange(1, 20)))
                   for _ in range(6)]
        warm = measure_program_runs(BRANCHY, secrets, warm_start=True)
        cold = measure_program_runs(BRANCHY, secrets, warm_start=False)
        assert warm.bits == cold.bits
        assert warm.per_run_bits == cold.per_run_bits
        assert graph_text(warm.report.graph) == \
            graph_text(cold.report.graph)
        assert warm.report.mincut.capacity == cold.report.mincut.capacity
