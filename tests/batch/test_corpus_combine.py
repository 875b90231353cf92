"""Randomized store/tree-reduce ≡ parent-fold equivalence.

The corpus-scale combine pipeline (content-addressed shard store →
dedup by multiplicity → tree reduction across the pool → streaming
root fold) must change only *where* the work happens, never *what* is
computed: combined graph, cut, capacity, and Kraft bound must be
bit-identical to the plain parent-side fold over the same manifest
order.  On top of that, the incremental Kraft trail must be a sound
anytime bound — every prefix entry >= the final exact bound, monotone
nonincreasing, ending exactly at it.
"""

import io
import os
import random

import pytest

from repro.batch import combine_graphs_jobs, combine_store_jobs
from repro.core.measure import measure_runs
from repro.errors import BatchError
from repro.graph.collapse import collapse_graphs, combine_runs, dedup_safe
from repro.graph.flowgraph import EdgeLabel, FlowGraph
from repro.graph.serialize import dump_graph
from repro.store import ShardStore
from tests.test_store import pack_records, rewrite_blob


def graph_text(graph):
    buffer = io.StringIO()
    dump_graph(graph, buffer)
    return buffer.getvalue()


def cut_fingerprint(cut):
    entries = []
    for ce in cut.edges:
        if ce.label is None:
            entries.append((None, None, ce.capacity))
        else:
            entries.append((ce.label.kind, str(ce.label.location),
                            ce.capacity))
    return sorted(entries, key=repr)


def shard(rng, sites=3):
    """A label-consistent collapsed-style shard.

    Labels appear only on inner (layer1 -> layer2) edges with the
    location fixed per site index, so any two shards from this
    generator collapse together without ever merging a source into a
    sink; every inner node touches a labelled edge, so the shard is
    dedup-safe.
    """
    graph = FlowGraph()
    layer1 = [graph.add_node() for _ in range(sites)]
    layer2 = [graph.add_node() for _ in range(sites)]
    for i in range(sites):
        graph.add_edge(graph.SOURCE, layer1[i], rng.randrange(1, 64))
        graph.add_edge(layer2[i], graph.SINK, rng.randrange(1, 64))
        graph.add_edge(layer1[i], layer2[i], rng.randrange(1, 32),
                       EdgeLabel("corpus.fl:%d" % i,
                                 rng.choice([None, 1, 2]), "op"))
        if rng.random() < 0.5:
            j = rng.randrange(sites)
            graph.add_edge(layer1[i], layer2[j], rng.randrange(1, 16),
                           EdgeLabel("corpus.fl:%d" % (sites + i),
                                     rng.choice([None, 1]), "op"))
    return graph


def unsafe_shard(rng):
    """A shard with an anonymous relay node: NOT dedup-safe."""
    graph = shard(rng, sites=2)
    relay = graph.add_node()
    graph.add_edge(graph.SOURCE, relay, rng.randrange(1, 8))
    graph.add_edge(relay, graph.SINK, rng.randrange(1, 8))
    assert not dedup_safe(graph)
    return graph


def corpus(rng, distinct_count, run_count, maker=shard):
    """(runs, distinct) where runs repeats the distinct shards."""
    distinct = [maker(rng) for _ in range(distinct_count)]
    runs = [distinct[rng.randrange(distinct_count)]
            for _ in range(run_count)]
    return runs, distinct


def fill_store(root, runs):
    store = ShardStore(root)
    for graph in runs:
        store.put(graph)
    return store


def open_packs():
    """This process's open descriptors on any store's pack, including
    packs whose directory was already deleted."""
    names = []
    for name in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink("/proc/self/fd/" + name)
        except OSError:
            continue
        if target.removesuffix(" (deleted)").endswith("/objects/pack"):
            names.append(name)
    return names


def assert_reports_identical(store_result, reference):
    assert store_result.bits == reference.bits
    assert graph_text(store_result.report.graph) == \
        graph_text(reference.graph)
    assert cut_fingerprint(store_result.report.mincut) == \
        cut_fingerprint(reference.mincut)
    stats = store_result.report.collapse_stats
    ref_stats = reference.collapse_stats
    assert (stats.original_nodes, stats.original_edges,
            stats.collapsed_nodes, stats.collapsed_edges) == \
        (ref_stats.original_nodes, ref_stats.original_edges,
         ref_stats.collapsed_nodes, ref_stats.collapsed_edges)


def assert_trail_sound(store_result):
    trail = store_result.anytime
    assert trail, "sealing must record at least the initial bound"
    final = store_result.bits
    assert trail[-1] == final
    for entry in trail:
        assert entry >= final
    for first, second in zip(trail, trail[1:]):
        assert first >= second


class TestTreeReduction:
    """``combine_graphs_jobs`` ≡ one-shot ``collapse_graphs``."""

    def test_randomized_equivalence(self):
        rng = random.Random(101)
        for trial in range(8):
            graphs = [shard(rng) for _ in range(rng.randrange(3, 12))]
            serial_graph, serial_stats = collapse_graphs(graphs)
            for jobs, fanin in ((2, None), (3, 2), (2, 3), (4, 7)):
                tree_graph, tree_stats = combine_graphs_jobs(
                    graphs, jobs=jobs, fanin=fanin)
                assert graph_text(tree_graph) == graph_text(serial_graph), \
                    (trial, jobs, fanin)
                assert (tree_stats.original_nodes,
                        tree_stats.original_edges,
                        tree_stats.collapsed_nodes,
                        tree_stats.collapsed_edges) == \
                    (serial_stats.original_nodes,
                     serial_stats.original_edges,
                     serial_stats.collapsed_nodes,
                     serial_stats.collapsed_edges)

    def test_bad_fanin_rejected(self):
        rng = random.Random(5)
        with pytest.raises(ValueError):
            combine_graphs_jobs([shard(rng) for _ in range(4)],
                                jobs=2, fanin=1)


class TestStoreEquivalence:
    """``combine_store_jobs`` ≡ parent fold over the manifest order."""

    def test_dedup_heavy_randomized(self, tmp_path):
        rng = random.Random(211)
        for trial in range(6):
            runs, _ = corpus(rng, distinct_count=3,
                             run_count=rng.randrange(6, 20))
            reference = measure_runs(runs)
            store = fill_store(tmp_path / ("heavy-%d" % trial), runs)
            for jobs in (1, 2, 4):
                result = combine_store_jobs(store, jobs=jobs)
                assert result.runs == len(runs)
                assert result.distinct == store.distinct
                assert not result.partial
                assert_reports_identical(result, reference)
                assert_trail_sound(result)

    def test_dedup_hostile_all_distinct(self, tmp_path):
        rng = random.Random(223)
        runs = [shard(rng) for _ in range(9)]
        reference = measure_runs(runs)
        store = fill_store(tmp_path / "hostile", runs)
        assert store.distinct == len(runs)
        for jobs, fanin in ((1, None), (2, None), (3, 2)):
            result = combine_store_jobs(store, jobs=jobs, fanin=fanin)
            assert_reports_identical(result, reference)
            assert_trail_sound(result)

    def test_dedup_unsafe_shards_fold_literally(self, tmp_path):
        rng = random.Random(227)
        runs, _ = corpus(rng, distinct_count=2, run_count=7,
                         maker=unsafe_shard)
        reference = measure_runs(runs)
        store = fill_store(tmp_path / "unsafe", runs)
        for jobs in (1, 2):
            result = combine_store_jobs(store, jobs=jobs)
            assert result.runs == len(runs)
            assert_reports_identical(result, reference)
            assert_trail_sound(result)

    def test_measure_runs_store_entry_point(self, tmp_path):
        rng = random.Random(229)
        runs, _ = corpus(rng, distinct_count=2, run_count=8)
        reference = measure_runs(runs)
        via_store = measure_runs(runs, store=tmp_path / "mr", jobs=2)
        assert via_store.bits == reference.bits
        assert graph_text(via_store.graph) == graph_text(reference.graph)
        assert cut_fingerprint(via_store.mincut) == \
            cut_fingerprint(reference.mincut)

    def test_empty_store_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            combine_store_jobs(ShardStore(tmp_path / "empty"))


class TestAnytimeTrail:
    def test_prefix_soundness_across_corpora(self, tmp_path):
        rng = random.Random(307)
        for trial in range(4):
            runs, _ = corpus(rng, distinct_count=4,
                             run_count=rng.randrange(8, 24))
            store = fill_store(tmp_path / ("trail-%d" % trial), runs)
            result = combine_store_jobs(store, jobs=3)
            assert_trail_sound(result)
            # The first trail entry is the sealed structural bound:
            # min over the two terminal sides, every group counted.
            assert result.anytime[0] >= result.bits


class TestPartialCollect:
    def test_lost_shard_dropped_from_graph_and_account(self, tmp_path):
        rng = random.Random(401)
        runs = [shard(rng) for _ in range(6)]
        root = tmp_path / "partial"
        store = fill_store(root, runs)
        victim = store.order()[2]
        # Blank the victim's blob, breaking its record's CRC: the open
        # store fails the CRC check, and every worker's fresh pack scan
        # skips the record but still indexes the shards after it.
        blob = next(b for _, d, _, b in pack_records(root) if d == victim)
        rewrite_blob(root, victim, bytes(len(blob)), fix_crc=False)
        with pytest.raises((Exception,)):
            combine_store_jobs(store, jobs=1)
        for jobs in (1, 2):
            result = combine_store_jobs(store, jobs=jobs,
                                        on_error="collect")
            assert result.partial
            assert result.failures
            assert result.report.partial
            assert result.covered < result.attempted
            assert result.attempted == len(runs)
            survivors = [g for g, d in zip(runs, store.order())
                         if d != victim]
            if jobs == 1:
                # Root-level streaming drops exactly the lost shard.
                reference = measure_runs(survivors)
                assert result.bits == reference.bits
                assert graph_text(result.report.graph) == \
                    graph_text(reference.graph)
            # The trail stays sound for what actually combined.
            assert_trail_sound(result)

    def test_all_shards_lost_raises(self, tmp_path):
        rng = random.Random(409)
        root = tmp_path / "void"
        store = fill_store(root, [shard(rng) for _ in range(3)])
        for _, digest, _, blob in pack_records(root):
            rewrite_blob(root, digest, bytes(len(blob)), fix_crc=False)
        with pytest.raises(BatchError):
            combine_store_jobs(store, jobs=1, on_error="collect")


class TestDescriptors:
    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc/self/fd")
    def test_combines_close_the_stores_they_open(self, tmp_path,
                                                 monkeypatch):
        # Keep every store this process opens alive, so only an
        # explicit close (not garbage collection) releases its pack.
        opened = []
        init = ShardStore.__init__

        def keep(self, *args, **kwargs):
            init(self, *args, **kwargs)
            opened.append(self)

        monkeypatch.setattr(ShardStore, "__init__", keep)
        runs, _ = corpus(random.Random(503), distinct_count=3, run_count=8)
        before = open_packs()
        for _ in range(3):
            # jobs=2 over 8 graphs runs a tree level through a
            # temporary store.
            combine_runs(runs, jobs=2)
        root = tmp_path / "corpus"
        combine_runs(runs, store=root)
        combine_store_jobs(root, jobs=2, fanin=2)
        assert len(opened) == 5
        assert open_packs() == before
