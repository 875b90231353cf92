"""Streaming combine ≡ one-shot combine, with one solve per fold.

:class:`~repro.core.combine.StreamingCombiner` folds runs in one at a
time and solves only when :attr:`bits` or :attr:`residual` is read.  It
must reach the same combined graph, bound and minimum cut as
:func:`~repro.core.measure.measure_runs`' one-shot combine; the store
path's root fold must solve exactly once; and the batch default must
equal the one-shot reference.  :class:`TestRepeatEdge` pins the
multiplicity fold of :class:`~repro.graph.collapse.OnlineCollapser`.
"""

import io
import random

import pytest

from repro import obs
from repro.batch import combine_store_jobs
from repro.core.combine import StreamingCombiner
from repro.core.locations import Location
from repro.core.measure import measure_runs
from repro.core.tracker import TraceBuilder
from repro.graph.collapse import OnlineCollapser, collapse_graphs
from repro.graph.flowgraph import INF, EdgeLabel
from repro.graph.serialize import dump_graph, dumps_graph, load_graph
from repro.lang import execute as lang_execute
from repro.lang import compile_cached
from repro.store import ShardStore


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


def trace_graphs(seed, count):
    rng = random.Random(seed)
    compiled = compile_cached(BRANCHY)
    graphs = []
    for _ in range(count):
        secret = bytes(rng.randrange(256)
                       for _ in range(rng.randrange(1, 24)))
        tracker = TraceBuilder()
        _vm, graph = lang_execute(compiled, secret, tracker=tracker)
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


class TestStreamingCombiner:
    @pytest.mark.parametrize("seed,read_each", [(51, True), (51, False),
                                                (52, True)])
    def test_streaming_equals_one_shot(self, seed, read_each):
        # read_each reads bits after every add, so a solve runs between
        # folds; the final report must not depend on those reads.
        graphs = trace_graphs(seed, 5)
        one_shot = measure_runs(graphs)

        combiner = StreamingCombiner()
        for graph in graphs:
            combiner.add(graph)
            if read_each:
                assert combiner.bits is not None
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
            combiner.add(graph)
            assert combiner.bits == measure_runs(graphs[:k]).bits
            assert combiner.runs == k

    def test_add_folds_and_bits_solves_once(self):
        graphs = trace_graphs(62, 3)
        combiner = StreamingCombiner()
        assert combiner.bits is None and combiner.residual is None
        obs.enable()
        try:
            for graph in graphs:
                assert combiner.add(graph) is None
            solves_after_adds = obs.get_metrics().snapshot()["maxflow.solves"]
            bits = combiner.bits
            residual = combiner.residual
            assert combiner.bits == bits and combiner.residual is residual
            combiner.report()
            solves = obs.get_metrics().snapshot()["maxflow.solves"]
        finally:
            obs.disable()
        assert solves_after_adds == 0
        assert solves == 1

    def test_empty_combiner_rejects_report(self):
        combiner = StreamingCombiner()
        with pytest.raises(ValueError):
            combiner.report()
        with pytest.raises(ValueError):
            _ = combiner.stats


def distinct_shards(count, seed):
    """``count`` digest-distinct collapsed shards of :data:`BRANCHY`."""
    texts = {}
    for graph in trace_graphs(seed, 4 * count):
        shard, _ = collapse_graphs([graph], context_sensitive=True)
        texts.setdefault(dumps_graph(shard), None)
        if len(texts) == count:
            return list(texts)
    raise AssertionError("too few distinct shards")


class TestRootFoldSolvesOnce:
    def test_store_root_fold_records_one_solve(self, tmp_path):
        # 16 distinct shards, each stored three times: the root fold
        # adds 16 graphs and solves once, at the end.
        texts = distinct_shards(16, seed=81)
        rng = random.Random(82)
        corpus = texts * 3
        rng.shuffle(corpus)
        with ShardStore(tmp_path / "store") as store:
            for text in corpus:
                store.put_text(text)
            assert store.distinct == 16
            obs.enable()
            try:
                result = combine_store_jobs(store, jobs=1)
                snap = obs.get_metrics().snapshot()
            finally:
                obs.disable()
        assert result.levels == 1
        assert snap["maxflow.solves"] == 1
        one_shot = measure_runs([load_graph(io.StringIO(text))
                                 for text in corpus])
        assert result.bits == one_shot.bits
        assert graph_text(result.report.graph) == graph_text(one_shot.graph)


class TestBatchCombineChoice:
    def test_batch_default_equals_one_shot_reference(self):
        from repro.batch import measure_program_runs
        rng = random.Random(71)
        secrets = [bytes(rng.randrange(256)
                         for _ in range(rng.randrange(1, 20)))
                   for _ in range(6)]
        streamed = measure_program_runs(BRANCHY, secrets)
        reference = measure_program_runs(BRANCHY, secrets, warm_start=False)
        assert streamed.bits == reference.bits
        assert streamed.per_run_bits == reference.per_run_bits
        assert graph_text(streamed.report.graph) == \
            graph_text(reference.report.graph)
        assert streamed.report.mincut.capacity == \
            reference.report.mincut.capacity
