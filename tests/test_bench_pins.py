"""The deterministic pins of ``BENCH_4.json``, as tier-1 tests.

Section 5.3's scalability claim is that the collapsed graph tracks code
coverage, not trace length.  Each row below replays the workload of one
benchmark recorded in ``BENCH_4.json`` (the row's id is that
benchmark's name) under a fresh metrics window and checks the values
recorded there: a collapsed-graph size may shrink but never grow
(``0 < value <= pin``), and a workload shape (batch fan-out, corpus
reduction) must match exactly.  Legs that only repeated work for
timing, or only fed an equivalence check that another test owns, are
left out; the values checked are the same.
"""

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.bench_sec53_scalability import (SIZES,  # noqa: E402
                                                trace_graph)
from benchmarks.tables import (table_fig2, table_fig3,  # noqa: E402
                               table_fig4)
from repro import obs  # noqa: E402
from repro.apps.bzip2 import measure_compression_flow  # noqa: E402
from repro.apps.countpunct import FLOWLANG_SOURCE  # noqa: E402
from repro.apps.pi import workload_of_size  # noqa: E402
from repro.batch import combine_store_jobs  # noqa: E402
from repro.batch import measure_by_category_jobs  # noqa: E402
from repro.batch import measure_program_runs  # noqa: E402
from repro.core.combine import StreamingCombiner  # noqa: E402
from repro.core.multisecret import measure_by_category  # noqa: E402
from repro.core.tracker import TraceBuilder  # noqa: E402
from repro.graph.collapse import collapse_graph  # noqa: E402
from repro.graph.collapse import collapse_graphs  # noqa: E402
from repro.graph.maxflow import dinic_max_flow  # noqa: E402
from repro.graph.serialize import dumps_graph  # noqa: E402
from repro.lang import compile_cached  # noqa: E402
from repro.lang import execute as lang_execute  # noqa: E402
from repro.pytrace import Session  # noqa: E402
from repro.store import ShardStore  # noqa: E402
from tests.graph.test_streaming_combine import BRANCHY  # noqa: E402


def branchy_runs(count, seed):
    """``count`` raw traces of :data:`BRANCHY` on seeded secrets."""
    rng = random.Random(seed)
    compiled = compile_cached(BRANCHY)
    graphs = []
    for _ in range(count):
        secret = bytes(rng.randrange(256)
                       for _ in range(rng.randrange(8, 32)))
        _vm, graph = lang_execute(compiled, secret, tracker=TraceBuilder())
        graphs.append(graph)
    return graphs


def posthoc_vs_online(_tmp):
    data = workload_of_size(4096)
    for online in (False, True):
        measure_compression_flow(data, online=online)


def scalability(_tmp):
    for size in SIZES:
        collapsed, _ = collapse_graph(trace_graph(size),
                                      context_sensitive=False)
        dinic_max_flow(collapsed)


def batch_multirun(_tmp):
    secrets = [b"." * (2000 + 137 * i) + b"?" * (600 + 61 * i)
               + b"x" * (40 + 7 * i) for i in range(8)]
    for jobs in (1, 4):
        measure_program_runs(FLOWLANG_SOURCE, secrets, collapse="context",
                             jobs=jobs)


def batch_multisecret(_tmp):
    session = Session()
    mixed = None
    for index, who in enumerate(("alice", "bob", "carol", "dave")):
        data = bytes((index * 37 + j * 11) % 256 for j in range(256))
        values = session.secret_bytes(data, category=who)
        total = values[0]
        for value in values[1:]:
            total = total ^ value
        session.output(total)
        mixed = total if mixed is None else mixed ^ total
    session.output(mixed)
    graph = session.finish()
    measure_by_category(graph, session.tracker.category_edges)
    measure_by_category_jobs(graph, session.tracker.category_edges, jobs=4)


def backends(_tmp):
    data = workload_of_size(4096)
    for backend in ("reference", "fast"):
        measure_compression_flow(data, online=True, backend=backend)


def streaming_combine(_tmp):
    combiner = StreamingCombiner(context_sensitive=True)
    for graph in branchy_runs(100, seed=42):
        combiner.add(graph)
    combiner.report()


def corpus_combine(tmp):
    """A dedup-heavy and a dedup-hostile corpus, each combined through a
    fresh shard store.  (The parent-side fold they were compared with
    is ``tests/batch/test_corpus_combine.py``'s job.)"""
    def shards(count, seed):
        return [collapse_graphs([graph], context_sensitive=True)[0]
                for graph in branchy_runs(count, seed)]

    distinct = shards(8, seed=1234)
    heavy = [distinct[i % len(distinct)] for i in range(5000)]
    for name, corpus in (("heavy", heavy), ("hostile", shards(300, 99))):
        texts = {id(shard): dumps_graph(shard) for shard in corpus}
        store = ShardStore(str(tmp / name))
        for shard in corpus:
            store.put_text(texts[id(shard)])
        combine_store_jobs(store, context_sensitive=True)


# (benchmark in BENCH_4.json, workload, size ceilings, exact values)
PINS = [
    ("fig2_countpunct", lambda _tmp: table_fig2(),
     {"collapse.nodes_after": 23}, {}),
    ("fig3_bzip2", lambda _tmp: table_fig3(),
     {"collapse.nodes_after": 11}, {}),
    ("fig4_casestudies", lambda _tmp: table_fig4(),
     {"collapse.nodes_after": 18}, {}),
    ("sec52_online_collapse", posthoc_vs_online,
     {"collapse.nodes_after": 11, "collapse.online.nodes_live": 11}, {}),
    ("sec53_scalability", scalability,
     {"collapse.nodes_after": 11}, {}),
    ("sec3_batch_multirun", batch_multirun,
     {"collapse.nodes_after": 23, "collapse.online.nodes_live": 23},
     {"batch.jobs": 16, "batch.workers": 4}),
    ("sec101_batch_multisecret", batch_multisecret,
     {}, {"batch.jobs": 4, "batch.workers": 4}),
    ("backends_fast_vs_reference", backends,
     {"collapse.online.nodes_live": 11}, {}),
    ("warmstart_streaming_combine", streaming_combine,
     {"collapse.nodes_after": 10}, {}),
    ("sec3_corpus_combine", corpus_combine,
     {"collapse.nodes_after": 10},
     {"combine.tree_levels": 1, "store.shards_written": 247}),
]


@pytest.mark.parametrize("workload, ceilings, exact", [
    pytest.param(workload, ceilings, exact, id=name)
    for name, workload, ceilings, exact in PINS])
def test_bench4_pin(workload, ceilings, exact, tmp_path):
    obs.enable()
    try:
        workload(tmp_path)
        snap = obs.get_metrics().snapshot()
    finally:
        obs.disable()
    for metric, pin in ceilings.items():
        assert 0 < snap[metric] <= pin, (metric, snap[metric], pin)
    for metric, pin in exact.items():
        assert snap[metric] == pin, (metric, snap[metric], pin)
