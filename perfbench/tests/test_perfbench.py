"""The benchmark's own tests: inputs, output contract, oracle, tracing.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import gzip
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import pytest

import run
import traced
import workloads
from conftest import BENCH, ROOT


def _bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_per_seed(name):
    workload = workloads.WORKLOADS[name]
    first = workload.generate(7)
    assert len(first) == workloads.ITEMS
    assert workloads.inputs_digest(first) == \
        workloads.inputs_digest(workload.generate(7))
    assert workloads.inputs_digest(first) != \
        workloads.inputs_digest(workload.generate(8))


def test_corpus_has_the_intended_shape():
    workload = workloads.CorpusDedup
    for corpus in workload.generate(3)[:2]:
        assert len(corpus) == workload.RUNS
        assert len(set(corpus)) == workload.DISTINCT


def test_committed_shards_are_distinct_canonical_graphs():
    from repro.graph.serialize import dumps_graph, text_digest
    pool = workloads.load_shards()
    assert len({text_digest(text) for text in pool}) == len(pool) >= 64
    for text, graph in workloads.parse_distinct(pool[:8]).items():
        assert dumps_graph(graph) == text


def test_benchmark_json_names_what_run_py_emits():
    doc = _bench_json()
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
        list(run.PER_LAYER)


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py")]
        + list(args), cwd=cwd, stdout=subprocess.PIPE, text=True,
        timeout=170)
    return proc


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_emitted_with_its_unit(trace):
    proc = _run("--workload", "measure_py", "--seed", "0", "--seconds",
                "0.1", "--trace", trace)
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= workloads.MIN_OPS
    listed = run.END_TO_END if trace == "0" else run.PER_LAYER
    assert {name: (entry["unit"]) for name, entry in
            result["metrics"].items()} == dict(listed)
    fingerprint = json.loads(lines[-2].split(" ", 1)[1])
    assert fingerprint["oracle"] == "committed"
    for key in ("backend", "native_available", "python", "nproc",
                "steal_ticks", "inputs_digest"):
        assert key in fingerprint
    if trace == "1":
        assert result["attempted"] == 2 * fingerprint["ops"]
        with gzip.open(os.path.join(ROOT, fingerprint["spans"]), "rt") as f:
            spans = [json.loads(line) for line in f]
        assert {span["op"] for span in spans} == set(range(fingerprint["ops"]))
        assert set(spans[0]) == {"id", "name", "start", "end", "parent", "op"}


def test_fails_without_a_repository(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("--workload", "batch", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_oracle_catches_a_wrong_bound():
    workload = workloads.MeasurePy
    items = workload.generate(run.DEFAULT_SEED)
    expected, source = run.expected_summaries(
        workload, run.DEFAULT_SEED, items, workloads.inputs_digest(items))
    assert source == "committed"
    summaries = {i: workload.summary(workload.op(item))
                 for i, item in enumerate(items[:3])}
    assert run.count_failed(3, summaries, {}, expected) == 0
    bits, *rest = summaries[1]
    summaries[1] = (bits + 1, *rest)
    assert run.count_failed(3, summaries, {}, expected) == 1
    assert run.count_failed(3, summaries, {2: "boom"}, expected) == 2
    del summaries[0]
    assert run.count_failed(3, summaries, {}, expected) == 2


def test_default_seed_inputs_that_differ_from_committed_ones_fail():
    workload = workloads.MeasurePy
    items = workload.generate(run.DEFAULT_SEED)
    expected, source = run.expected_summaries(
        workload, run.DEFAULT_SEED, items[1:],
        workloads.inputs_digest(items[1:]))
    assert (expected, source) == (None, "mismatch")
    summaries = {0: workload.summary(workload.op(items[0]))}
    assert run.count_failed(1, summaries, {}, expected) == 1


def test_slices_cover_the_op_sequence_once():
    for ops in (100, 101, 2250):
        slices = run._slices(ops, run.SLICES)
        assert len(slices) == run.SLICES
        assert [i for lo, n in slices for i in range(lo, lo + n)] == \
            list(range(ops))


def test_committed_expectations_match_the_oracle():
    workload = workloads.Batch
    items = workload.generate(run.DEFAULT_SEED)
    expected, source = run.expected_summaries(
        workload, run.DEFAULT_SEED, items, workloads.inputs_digest(items))
    assert source == "committed"
    assert [tuple(e) for e in expected[:2]] == \
        [workload.oracle(item) for item in items[:2]]


def test_packed_spans_read_back_unchanged():
    rec = traced.Recorder()
    rec.op = 3
    with rec.span("op"):
        with rec.span("a"):
            pass
        rec.interval("b", 1.0, 2.0)
    spans = list(rec.spans)
    assert rec.pack() == spans and rec.spans == []
    assert list(rec.packed()) == spans


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (0, "op", 0.0, 10.0, None, 0),
        (1, "a", 1.0, 5.0, 0, 0),
        (2, "b", 3.0, 7.0, 0, 0),   # overlaps a: parallel workers
        (3, "c", 4.0, 4.5, 1, 0),
    ]
    own = traced.self_times(spans)
    assert own[0] == pytest.approx(4.0)   # 10 - |[1, 7]|
    assert own[1] == pytest.approx(3.5)
    table, walls = traced.layer_table(spans)
    assert table[0]["unattributed"] == pytest.approx(4.0)
    assert walls == {0: 10.0}


# ----------------------------------------------------------------------
# Seeded slowdown: a 20% delay in one layer's public function must show
# in that layer's traced metric and in no other.


def _slowed(func, share=0.2):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        result = func(*args, **kwargs)
        until = time.perf_counter() + share * (time.perf_counter() - t0)
        while time.perf_counter() < until:
            pass
        return result
    return wrapper


def _layer_ratios(workload, owner, attr, tmp_path, rounds):
    """Per layer, the median over rounds of slowed ÷ plain self time.

    Each round replays one item plainly and with the delay, in
    alternating order, so the pair shares the machine's state.
    """
    items = workload.generate(1)[:4]
    original = getattr(owner, attr)
    rec = traced.Recorder()
    for i in range(rounds):
        order = ("plain", "slowed") if i % 2 else ("slowed", "plain")
        for variant in order:
            if variant == "slowed":
                setattr(owner, attr, _slowed(original))
            try:
                rec.op = (variant, i)
                traced.replay(workload, rec, items[i % len(items)],
                              str(tmp_path / ("%s-%d" % (variant, i))),
                              first=False)
            finally:
                setattr(owner, attr, original)
    table, walls = traced.layer_table(rec.spans)
    names = set(table[("plain", 0)])
    wall = statistics.median(walls[("plain", i)] for i in range(rounds))
    shares = {name: statistics.median(table[("plain", i)].get(name, 0.0)
                                      for i in range(rounds)) / wall
              for name in names}
    ratios = {name: statistics.median(
        table[("slowed", i)].get(name, 0.0) / table[("plain", i)][name]
        for i in range(rounds) if table[("plain", i)].get(name))
        for name in names}
    return ratios, shares


@pytest.mark.parametrize("workload, owner, attr, layer", [
    (workloads.MeasurePy, "repro.pytrace.Session", "finish",
     "tracker.finish"),
    (workloads.CorpusDedup, "repro.core.combine.StreamingCombiner", "add",
     "combine.add"),
])
def test_seeded_slowdown_lands_in_its_layer(workload, owner, attr, layer,
                                            tmp_path):
    module, _, cls = owner.rpartition(".")
    owner = getattr(__import__(module, fromlist=[cls]), cls)
    ratios, shares = _layer_ratios(workload, owner, attr, tmp_path,
                                   rounds=40)
    assert ratios[layer] > 1.12
    for name, ratio in ratios.items():
        if name != layer and shares[name] > 0.02:
            assert ratio < 1.08, (name, ratio)
