"""The one multi-run combine: warm ≡ cold cuts, and its entry points.

Every §3.2 combine goes through ``repro.batch.runs._combine``: a tree
reduction across the pool and one warm-started streaming root fold.
That is only a refactor if the warm fold reproduces the one-shot cold
solve exactly — bound, graph, *and* cut.  The cut identity holds
because ``min_cut_from_residual`` takes the source side as the nodes
reachable in the residual network, a set that is the same for every
maximum flow; these randomized suites pin it.
"""

import random

import pytest

from repro.apps.countpunct import FLOWLANG_SOURCE as COUNTPUNCT
from repro.batch import runs as runs_module
from repro.core.combine import StreamingCombiner
from repro.core.measure import measure_runs
from repro.core.tracker import TraceBuilder
from repro.lang import compile_cached, execute

from .test_corpus_combine import (corpus, cut_fingerprint, graph_text,
                                  shard, unsafe_shard)


def traced_runs(rng, count):
    compiled = compile_cached(COUNTPUNCT)
    graphs = []
    for _ in range(count):
        secret = bytes(rng.choice(b".?ax ")
                       for _ in range(rng.randrange(1, 24)))
        _vm, graph = execute(compiled, secret, b"", TraceBuilder())
        graphs.append(graph)
    return graphs


def warm_report(graphs, context_sensitive=True):
    combiner = StreamingCombiner(context_sensitive=context_sensitive)
    for graph in graphs:
        combiner.add(graph)
    return combiner.report()


def assert_same_cut(warm, cold):
    assert warm.bits == cold.bits
    assert graph_text(warm.graph) == graph_text(cold.graph)
    assert warm.mincut.source_side == cold.mincut.source_side
    assert cut_fingerprint(warm.mincut) == cut_fingerprint(cold.mincut)


class TestWarmColdSameCut:
    def test_random_shard_corpora(self):
        rng = random.Random(503)
        for _ in range(60):
            maker = rng.choice((shard, unsafe_shard))
            runs, _ = corpus(rng, distinct_count=rng.randrange(1, 6),
                             run_count=rng.randrange(1, 12), maker=maker)
            assert_same_cut(warm_report(runs), measure_runs(runs))

    @pytest.mark.parametrize("collapse", ["context", "location"])
    def test_traced_countpunct_runs(self, collapse):
        rng = random.Random(509)
        for _ in range(8):
            runs = traced_runs(rng, rng.randrange(1, 6))
            warm = warm_report(runs, context_sensitive=collapse == "context")
            assert_same_cut(warm, measure_runs(runs, collapse=collapse))

    def test_parallel_measure_runs_same_cut(self):
        rng = random.Random(521)
        runs = traced_runs(rng, 6)
        serial = measure_runs(runs)
        assert_same_cut(measure_runs(runs, jobs=2), serial)
        assert_same_cut(measure_runs(runs, jobs=3), serial)


class TestCollapseValidation:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_measure_runs_rejects_unknown_mode(self, jobs):
        runs = traced_runs(random.Random(7), 3)
        with pytest.raises(ValueError, match="contxt"):
            measure_runs(runs, collapse="contxt", jobs=jobs)

    def test_measure_runs_rejects_unknown_mode_with_store(self, tmp_path):
        runs = traced_runs(random.Random(11), 2)
        with pytest.raises(ValueError, match="contxt"):
            measure_runs(runs, collapse="contxt", store=tmp_path / "s")
        assert not (tmp_path / "s").exists()


class TestInMemoryCombine:
    def test_root_only_fold_never_touches_disk(self, monkeypatch):
        def no_store(*_args, **_kwargs):
            raise AssertionError("a root-only combine opened a store")

        monkeypatch.setattr(runs_module, "ShardStore", no_store)
        rng = random.Random(601)
        runs = [shard(rng) for _ in range(5)]
        result = runs_module._combine([(graph, 1) for graph in runs], None)
        assert_same_cut(result.report, measure_runs(runs))
        assert result.levels == 1
        assert (result.attempted, result.covered, result.distinct) == \
            (5, 5, 5)

    def test_tree_level_store_is_temporary(self, tmp_path, monkeypatch):
        monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
        rng = random.Random(607)
        runs = [shard(rng) for _ in range(7)]
        result = runs_module._combine([(graph, 1) for graph in runs], None,
                                      jobs=2, fanin=2)
        assert result.levels > 1
        assert_same_cut(result.report, measure_runs(runs))
        assert list(tmp_path.iterdir()) == []

    def test_in_memory_trail_is_sound(self):
        rng = random.Random(613)
        runs = [shard(rng) for _ in range(6)]
        result = runs_module._combine([(graph, 1) for graph in runs], None)
        trail = result.anytime
        assert trail[-1] == result.bits
        assert all(a >= b for a, b in zip(trail, trail[1:]))
        # seal, one merge per root step after the first, finalize
        assert len(trail) == 1 + (len(runs) - 1) + 1
