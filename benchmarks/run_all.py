#!/usr/bin/env python3
"""Regenerate every paper table/figure in one run (no pytest needed).

Prints the reproduction's number for each table and figure of the
paper; EXPERIMENTS.md records these side by side with the paper's
values.

Run:  python benchmarks/run_all.py [--json FILE] [--jobs N]
                                   [--trace-dir DIR]

With ``--json``, also writes a machine-readable record: one entry per
benchmark with its wall time and a ``metrics`` block (the observability
snapshot documented in ``docs/observability.md``), so successive
``BENCH_*.json`` files form a perf trajectory of the pipeline
(``benchmarks/check_regression.py`` compares two such files).

With ``--jobs N``, benchmarks run in N worker processes via
``repro.batch.BatchEngine``; output and the JSON record keep the
canonical (paper) order either way, and every worker's metrics are
merged into a top-level ``metrics`` block of the JSON record.  Wall
times from a parallel run are noisier than a serial one -- regenerate
committed baselines serially.

With ``--trace-dir DIR``, structured tracing is enabled for the whole
run and two files land in DIR: ``run_all.trace.json`` (Chrome
trace-event JSON; open in Perfetto, one track per worker process) and
``run_all.trace.jsonl`` (one span per line).  Combine with ``--jobs``
to see the fan-out timeline.

With ``--telemetry-dir DIR``, a background exporter writes the
``telemetry-v1`` layout (JSONL metric/resource/event time series +
OpenMetrics text; see docs/observability.md) every
``--telemetry-interval`` seconds for the whole run, so a long
regeneration can be watched live with ``repro obs tail DIR``.  The
exporter's publish ledger keeps exported counters monotone even
though each benchmark runs under a fresh registry window.
"""

import argparse
import io
import json
import os
import random
import sys
import time
from contextlib import redirect_stdout

sys.path.insert(0, ".")  # allow running from the repo root

from benchmarks.tables import (table_fig2, table_fig3, table_fig4,
                               table_fig5, table_sec32)
from repro import obs
from repro.apps.bzip2 import measure_compression_flow
from repro.apps.bzip2.compressor import compress
from repro.apps.countpunct import FLOWLANG_SOURCE as COUNTPUNCT_SOURCE
from repro.apps.flowlang_sources import FIGURE6_PROGRAMS
from repro.apps.pi import workload_of_size
from repro.batch import BatchEngine, measure_program_runs
from repro.graph.collapse import collapse_graph, collapse_graphs
from repro.graph.maxflow import dinic_max_flow
from repro.graph.serialize import dump_graph
from repro.graph.seriesparallel import reduce_series_parallel
from repro.infer import classify_annotations, figure6_table
from repro.lang.checker import check_program
from repro.lang.parser import parse
from repro.pytrace import Session


def trace_graph(size):
    session = Session()
    data = session.secret_bytes(workload_of_size(size))
    out = compress(data, session=session)
    session.output_bytes(out)
    return session.finish()


def section51():
    print("\n### Section 5.1: series-parallel reduction of trace graphs"
          " (paper: ~16% irreducible for bzip2)")
    print("%8s %10s %12s" % ("bytes", "edges", "irreducible"))
    for size in (128, 512, 2048):
        reduction = reduce_series_parallel(trace_graph(size))
        print("%8d %10d %11.1f%%" % (size, reduction.original_edges,
                                     100 * reduction.irreducible_fraction))


def section53():
    print("\n### Section 5.3: collapsing and max-flow time")
    print("%8s %12s %12s %10s %10s" % ("bytes", "raw-edges", "collapsed",
                                       "flow", "solve(s)"))
    for size in (128, 512, 2048):
        graph = trace_graph(size)
        collapsed, stats = collapse_graph(graph, context_sensitive=False)
        t0 = time.perf_counter()
        flow, _ = dinic_max_flow(collapsed)
        seconds = time.perf_counter() - t0
        print("%8d %12d %12d %10d %10.4f" % (
            size, stats.original_edges, stats.collapsed_edges, flow,
            seconds))


def section52_online():
    """Online collapse (Section 5.2) vs. the post-hoc reference."""
    print("\n### Section 5.2: online vs post-hoc collapse"
          " (compressor, largest Figure 3 input)")
    size = 4096
    data = workload_of_size(size)
    print("%8s %10s %10s %10s %10s" % ("mode", "bits", "nodes",
                                       "edges", "wall(s)"))
    results = {}
    for mode, online in (("posthoc", False), ("online", True)):
        t0 = time.perf_counter()
        result = measure_compression_flow(data, online=online)
        wall = time.perf_counter() - t0
        results[mode] = result
        print("%8s %10d %10d %10d %10.4f" % (
            mode, result.flow_bits, result.report.graph.num_nodes,
            result.report.graph.num_edges, wall))
    post, onl = results["posthoc"], results["online"]
    if (post.flow_bits, post.report.graph.num_nodes,
            post.report.graph.num_edges) != (
            onl.flow_bits, onl.report.graph.num_nodes,
            onl.report.graph.num_edges):
        raise AssertionError("online collapse diverged from post-hoc: "
                             "%r vs %r" % (post, onl))
    print("equivalent: yes (same flow, same collapsed graph)")


def figure6():
    scores = []
    for name, source in sorted(FIGURE6_PROGRAMS.items()):
        program = check_program(parse(source, filename=name))
        scores.append(classify_annotations(program, name))
    print("\n### Figure 6: pilot enclosure inference (paper overall: 72%)")
    print(figure6_table(scores))


def _graph_text(graph):
    buffer = io.StringIO()
    dump_graph(graph, buffer)
    return buffer.getvalue()


def _batch_secrets():
    """Deterministic §3.2 multi-run workload: 8 countpunct inputs."""
    return [b"." * (2000 + 137 * i) + b"?" * (600 + 61 * i)
            + b"x" * (40 + 7 * i) for i in range(8)]


def section3_batch():
    """§3.2 multi-run workload through the batch engine, serial vs jobs=4."""
    print("\n### Section 3.2 batch: 8-run combined bound,"
          " serial vs --jobs 4")
    secrets = _batch_secrets()
    timings = {}
    results = {}
    for label, jobs in (("serial", 1), ("jobs=4", 4)):
        t0 = time.perf_counter()
        results[label] = measure_program_runs(
            COUNTPUNCT_SOURCE, secrets, collapse="context", jobs=jobs)
        timings[label] = time.perf_counter() - t0
    serial, parallel = results["serial"], results["jobs=4"]
    if (serial.bits, serial.per_run_bits) != (parallel.bits,
                                              parallel.per_run_bits):
        raise AssertionError("parallel multi-run diverged from serial: "
                             "%r vs %r" % (serial, parallel))
    if _graph_text(serial.report.graph) != _graph_text(parallel.report.graph):
        raise AssertionError("parallel combined graph differs from serial")
    speedup = timings["serial"] / timings["jobs=4"]
    print("%8s %10s %10s" % ("mode", "bits", "wall(s)"))
    for label in ("serial", "jobs=4"):
        print("%8s %10d %10.4f" % (label, results[label].bits,
                                   timings[label]))
    print("equivalent: yes (same bounds, same combined graph); "
          "speedup %.2fx" % speedup)
    return {
        "runs": len(secrets),
        "jobs": 4,
        "combined_bits": serial.bits,
        "serial_seconds": timings["serial"],
        "parallel_seconds": timings["jobs=4"],
        "speedup": speedup,
    }


def section101_batch_multisecret():
    """§10.1 per-category sweep through the batch engine, serial vs jobs=4."""
    from repro.core.multisecret import measure_by_category
    print("\n### Section 10.1 batch: 4-category sweep, serial vs --jobs 4")
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
    category_edges = session.tracker.category_edges
    timings = {}
    results = {}
    for label, jobs in (("serial", 1), ("jobs=4", 4)):
        t0 = time.perf_counter()
        results[label] = measure_by_category(graph, category_edges,
                                             jobs=jobs)
        timings[label] = time.perf_counter() - t0
    serial, parallel = results["serial"], results["jobs=4"]
    if (serial.per_category, serial.joint) != (parallel.per_category,
                                               parallel.joint):
        raise AssertionError("parallel category sweep diverged from "
                             "serial: %r vs %r" % (serial, parallel))
    print("%8s %26s %8s %10s" % ("mode", "per-category", "joint",
                                 "wall(s)"))
    for label in ("serial", "jobs=4"):
        bounds = results[label]
        per = " ".join("%s=%d" % kv
                       for kv in sorted(bounds.per_category.items()))
        print("%8s %26s %8d %10.4f" % (label, per, bounds.joint,
                                       timings[label]))
    print("equivalent: yes (same per-category and joint bounds)")
    return {
        "categories": len(category_edges),
        "jobs": 4,
        "joint_bits": serial.joint,
        "serial_seconds": timings["serial"],
        "parallel_seconds": timings["jobs=4"],
    }


def section_backends():
    """Reference vs fast shadow propagation on the largest Figure 3 input."""
    print("\n### Backends: reference vs fast shadow propagation"
          " (compressor, largest Figure 3 input)")
    size = 4096
    data = workload_of_size(size)
    metrics = obs.get_metrics()
    medians = {}
    results = {}
    reps = 3
    for backend in ("reference", "fast"):
        trace_times = []
        for _ in range(reps):
            before = metrics.snapshot().get("phase.trace.seconds", 0.0)
            result = measure_compression_flow(data, online=True,
                                              backend=backend)
            after = metrics.snapshot()["phase.trace.seconds"]
            trace_times.append(after - before)
        trace_times.sort()
        medians[backend] = trace_times[reps // 2]
        results[backend] = result
    ref, fast = results["reference"], results["fast"]
    if (ref.flow_bits, ref.report.graph.num_nodes,
            ref.report.graph.num_edges) != (
            fast.flow_bits, fast.report.graph.num_nodes,
            fast.report.graph.num_edges):
        raise AssertionError("fast backend diverged from reference: "
                             "%r vs %r" % (ref, fast))
    speedup = medians["reference"] / medians["fast"]
    print("%10s %10s %12s" % ("backend", "bits", "trace(s)"))
    for backend in ("reference", "fast"):
        print("%10s %10d %12.4f" % (backend, results[backend].flow_bits,
                                    medians[backend]))
    print("equivalent: yes (same flow, same collapsed graph); "
          "phase.trace speedup %.2fx" % speedup)
    return {
        "input_bytes": size,
        "flow_bits": ref.flow_bits,
        "reference_trace_seconds": medians["reference"],
        "fast_trace_seconds": medians["fast"],
        "trace_speedup": speedup,
    }


def section53_native_vs_fast():
    """Native (compiled) vs fast (pure Python) Dinic solves.

    Two workloads: the *raw* trace graph of the largest Figure 3
    compressor input (the §5.3 "solve before collapsing" stress --
    shallow and wide, Python overhead per arc is modest) and an
    adversarial grid graph where the blocking-flow loop dominates and
    the compiled kernel's advantage is structural.  Values, residual
    capacities, and cut sides must be bit-identical
    (docs/backends.md); with the extension built, the grid solve must
    be at least 2x faster under the native backend.
    """
    from repro.graph.generators import grid_graph
    from repro.shadow import native_available
    print("\n### Section 5.3: native vs fast max-flow"
          " (compressor trace + adversarial grid)")
    if not native_available():
        print("SKIP: compiled repro._native extension not built here; "
              "`pip install .` with a C compiler enables it "
              "(docs/backends.md)")
        return {"native_available": False}
    workloads = (
        ("trace4096", trace_graph(4096)),
        ("grid100", grid_graph(100, 100, seed=5)),
    )
    reps = 3
    record = {"native_available": True}
    print("%10s %10s %8s %12s %12s %9s" % (
        "workload", "edges", "flow", "fast(s)", "native(s)", "speedup"))
    for name, graph in workloads:
        medians = {}
        sides = {}
        for backend in ("fast", "native"):
            times = []
            for _ in range(reps):
                t0 = time.perf_counter()
                value, net = dinic_max_flow(graph, backend=backend)
                times.append(time.perf_counter() - t0)
            times.sort()
            medians[backend] = times[reps // 2]
            sides[backend] = (value, net.cap, net.source_side())
        if sides["native"] != sides["fast"]:
            raise AssertionError(
                "native solver diverged from fast on %s: value/residual/"
                "cut mismatch" % name)
        speedup = medians["fast"] / medians["native"]
        flow = sides["fast"][0]
        print("%10s %10d %8d %12.4f %12.4f %8.2fx" % (
            name, graph.num_edges, flow, medians["fast"],
            medians["native"], speedup))
        record[name] = {
            "flow_bits": flow,
            "fast_seconds": medians["fast"],
            "native_seconds": medians["native"],
            "speedup": speedup,
        }
    if record["grid100"]["speedup"] < 2.0:
        raise AssertionError(
            "native Dinic under 2x on the grid workload: %.2fx"
            % record["grid100"]["speedup"])
    print("equivalent: yes (same flow, residual, and cut side on both "
          "workloads); solve speedup %.1fx (trace) / %.1fx (grid)"
          % (record["trace4096"]["speedup"], record["grid100"]["speedup"]))
    return record


WARMSTART_SOURCE = """
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


def section_warmstart():
    """Anytime bounds over 100 runs: cold prefix re-solve vs streaming.

    Both sides produce the sound Kraft-combined bound *after every run*
    (the anytime-bound use case).  The cold baseline recombines the
    whole prefix and solves from scratch each time -- the only way to
    get that bound sequence without the streaming path.  The streaming
    path folds one graph in and warm-starts the solve from the previous
    residual (:class:`repro.core.combine.StreamingCombiner`).  The bound
    sequences must match exactly.
    """
    from repro.core.combine import StreamingCombiner
    from repro.core.tracker import TraceBuilder
    from repro.lang import compile_cached
    from repro.lang import execute as lang_execute
    print("\n### Warm start: anytime bounds over 100 runs,"
          " cold prefix re-solve vs streaming combine")
    rng = random.Random(42)
    compiled = compile_cached(WARMSTART_SOURCE)
    graphs = []
    for _ in range(100):
        secret = bytes(rng.randrange(256)
                       for _ in range(rng.randrange(8, 32)))
        tracker = TraceBuilder()
        _vm, graph = lang_execute(compiled, secret, tracker=tracker)
        graphs.append(graph)
    t0 = time.perf_counter()
    cold_bounds = []
    for i in range(1, len(graphs) + 1):
        combined, _ = collapse_graphs(graphs[:i], context_sensitive=True)
        value, _ = dinic_max_flow(combined)
        cold_bounds.append(value)
    cold = time.perf_counter() - t0
    t0 = time.perf_counter()
    combiner = StreamingCombiner(context_sensitive=True, warm_start=True)
    warm_bounds = [combiner.add(graph) for graph in graphs]
    warm = time.perf_counter() - t0
    if cold_bounds != warm_bounds:
        raise AssertionError("streaming anytime bounds diverged from cold "
                             "prefix re-solve")
    speedup = cold / warm
    print("%10s %12s %12s" % ("mode", "final-bits", "wall(s)"))
    print("%10s %12d %12.4f" % ("cold", cold_bounds[-1], cold))
    print("%10s %12d %12.4f" % ("streaming", warm_bounds[-1], warm))
    print("equivalent: yes (identical bound after every run); "
          "speedup %.1fx" % speedup)
    return {
        "runs": len(graphs),
        "final_bits": warm_bounds[-1],
        "cold_seconds": cold,
        "streaming_seconds": warm,
        "speedup": speedup,
    }


def _corpus_shards(count, seed):
    """``count`` distinct collapsed per-run shards of WARMSTART_SOURCE."""
    from repro.core.tracker import TraceBuilder
    from repro.lang import compile_cached
    from repro.lang import execute as lang_execute
    rng = random.Random(seed)
    compiled = compile_cached(WARMSTART_SOURCE)
    shards = []
    for _ in range(count):
        secret = bytes(rng.randrange(256)
                       for _ in range(rng.randrange(8, 32)))
        tracker = TraceBuilder()
        _vm, graph = lang_execute(compiled, secret, tracker=tracker)
        shard, _ = collapse_graphs([graph], context_sensitive=True)
        shards.append(shard)
    return shards


def _corpus_variant(name, corpus):
    """One corpus through both combine paths; returns the record dict.

    The parent-side fold is the pre-store pipeline: one
    ``collapse_graphs`` over the literal run list, then a solve.  The
    store path is what ``repro batch --store`` + ``repro combine`` do:
    content-addressed puts of the runs' canonical text (each distinct
    shard is parsed and written once; repeats cost a hash and a
    manifest line), then :func:`repro.batch.runs.combine_store_jobs` —
    a multiplicity-weighted tree reduction whose working graph stays
    coverage-sized.  Both paths must produce bit-identical results.
    """
    import shutil
    import tempfile
    from repro.batch.runs import combine_store_jobs
    from repro.graph.serialize import dumps_graph
    from repro.store import ShardStore
    t0 = time.perf_counter()
    folded, _stats = collapse_graphs(corpus, context_sensitive=True)
    fold_bits, _ = dinic_max_flow(folded)
    fold_seconds = time.perf_counter() - t0
    texts = {}
    for shard in corpus:
        if id(shard) not in texts:
            texts[id(shard)] = dumps_graph(shard)
    root = tempfile.mkdtemp(prefix="repro-corpus-")
    try:
        t0 = time.perf_counter()
        store = ShardStore(root)
        for shard in corpus:
            store.put_text(texts[id(shard)])
        result = combine_store_jobs(store, context_sensitive=True)
        store_seconds = time.perf_counter() - t0
        if (result.bits != fold_bits
                or dumps_graph(result.report.graph) != dumps_graph(folded)):
            raise AssertionError(
                "store combine diverged from the parent fold on the %s "
                "corpus: %d vs %d bits" % (name, result.bits, fold_bits))
        for prefix, final in zip(result.anytime, result.anytime[1:]):
            if prefix < final:
                raise AssertionError("anytime trail is not "
                                     "nonincreasing: %r" % result.anytime)
        record = {
            "runs": len(corpus),
            "distinct": store.distinct,
            "combined_bits": fold_bits,
            "peak_graph_nodes": result.report.graph.num_nodes,
            "fold_seconds": fold_seconds,
            "store_seconds": store_seconds,
            "speedup": fold_seconds / store_seconds,
        }
    finally:
        shutil.rmtree(root)
    print("%8s %8d %9d %6d %11.4f %11.4f %9.2fx"
          % (name, record["runs"], record["distinct"],
             record["combined_bits"], fold_seconds, store_seconds,
             record["speedup"]))
    return record


def section3_corpus_combine():
    """Corpus-scale combine: shard store + tree reduction vs parent fold.

    Two corpus shapes: *dedup-heavy* (few distinct runs repeated many
    times — the realistic shape for repeated measurements of one
    program, where the store reduces the combine to a
    multiplicity-weighted fold over the distinct shards) and
    *dedup-hostile* (every run distinct, so the store adds pure
    overhead: each shard is parsed, hashed, written, and re-read).
    Both must stay bit-identical to the parent fold; the heavy corpus
    must show the store path's asymptotic win.
    """
    print("\n### Section 3.2 corpus: content-addressed store +"
          " tree-reduction combine vs parent fold")
    print("%8s %8s %9s %6s %11s %11s %10s"
          % ("corpus", "runs", "distinct", "bits", "fold(s)",
             "store(s)", "speedup"))
    distinct = _corpus_shards(8, seed=1234)
    heavy_corpus = [distinct[i % len(distinct)] for i in range(5000)]
    heavy = _corpus_variant("heavy", heavy_corpus)
    hostile = _corpus_variant("hostile", _corpus_shards(300, seed=99))
    print("equivalent: yes (both corpora bit-identical to the parent "
          "fold); heavy-corpus speedup %.1fx with peak graph %d nodes "
          "(coverage-sized, vs %d run graphs held by the fold)"
          % (heavy["speedup"], heavy["peak_graph_nodes"], heavy["runs"]))
    return {"heavy": heavy, "hostile": hostile}


def _print_table(fn):
    def run():
        text, _ = fn()
        print(text)
    return run


#: Every benchmark the harness runs, in paper order.
BENCHMARKS = (
    ("fig2_countpunct", _print_table(table_fig2)),
    ("fig3_bzip2", _print_table(table_fig3)),
    ("fig4_casestudies", _print_table(table_fig4)),
    ("fig5_imagemagick", _print_table(table_fig5)),
    ("sec32_consistency", _print_table(table_sec32)),
    ("fig6_inference", figure6),
    ("sec51_seriesparallel", section51),
    ("sec52_online_collapse", section52_online),
    ("sec53_scalability", section53),
    ("sec3_batch_multirun", section3_batch),
    ("sec101_batch_multisecret", section101_batch_multisecret),
    ("backends_fast_vs_reference", section_backends),
    ("sec53_native_vs_fast", section53_native_vs_fast),
    ("warmstart_streaming_combine", section_warmstart),
    ("sec3_corpus_combine", section3_corpus_combine),
)


def _run_one(name):
    """Run one benchmark by name; returns ``(printed_text, record)``.

    Top-level (and addressed by picklable name, not function) so the
    batch engine can run it in a worker; stdout is captured so a
    parallel run's output can be replayed in canonical order.  A
    benchmark returning a dict gets it attached as the record's
    ``extra`` block (the batch benchmarks report their speedups there).
    """
    fn = dict(BENCHMARKS)[name]
    buffer = io.StringIO()
    obs.enable()
    t0 = time.perf_counter()
    with obs.get_tracer().span("bench.run", benchmark=name):
        with redirect_stdout(buffer):
            extra = fn()
    wall = time.perf_counter() - t0
    record = {
        "name": name,
        "wall_seconds": wall,
        "metrics": obs.get_metrics().snapshot(),
    }
    if extra is not None:
        record["extra"] = extra
    obs.disable()
    return buffer.getvalue(), record


def run_benchmarks(jobs=1):
    """Run every benchmark under a fresh metrics window; returns records.

    ``jobs`` > 1 distributes benchmarks over worker processes
    (non-daemonic, so the batch benchmarks can fan out their own
    workers from inside one); records (and printed output) stay in
    canonical order.
    """
    names = [name for name, _ in BENCHMARKS]
    results = BatchEngine(jobs).map(_run_one, names)
    records = []
    for text, record in results:
        sys.stdout.write(text)
        records.append(record)
    return records


def merged_metrics(records):
    """One registry-shaped dict folding every benchmark's metrics.

    Uses the :meth:`repro.obs.metrics.Metrics.merge` semantics
    (counters and timers add, gauges keep the maximum), so a parallel
    run reports the same totals a serial run would.
    """
    combined = obs.Metrics()
    for record in records:
        combined.merge(record["metrics"])
    return combined.snapshot()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--json", metavar="FILE",
                    help="also write per-benchmark results and metrics "
                         "as JSON")
    ap.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="run benchmarks in N worker processes "
                         "(default: 1, serial)")
    ap.add_argument("--trace-dir", metavar="DIR",
                    help="record structured spans for the whole run and "
                         "write run_all.trace.json (Chrome trace-event; "
                         "open in Perfetto) and run_all.trace.jsonl "
                         "there")
    ap.add_argument("--telemetry-dir", dest="telemetry_dir", metavar="DIR",
                    help="continuously export metrics, resource samples, "
                         "and events there (telemetry-v1; watch with "
                         "'repro obs tail DIR')")
    ap.add_argument("--telemetry-interval", dest="telemetry_interval",
                    type=float, default=1.0, metavar="SECONDS",
                    help="seconds between telemetry flushes (default 1.0)")
    args = ap.parse_args(argv)
    if args.jobs < 1:
        ap.error("--jobs must be >= 1")
    tracer = None
    if args.trace_dir:
        os.makedirs(args.trace_dir, exist_ok=True)
        tracer = obs.enable_tracing()
    exporter = None
    if args.telemetry_dir:
        obs.enable_events()
        exporter = obs.TelemetryExporter(args.telemetry_dir,
                                         interval=args.telemetry_interval)
        obs.set_exporter(exporter)
        exporter.start()
    try:
        records = run_benchmarks(jobs=args.jobs)
    finally:
        if exporter is not None:
            obs.set_exporter(None)
            flush_error = exporter.stop()
            obs.disable_events()
            if flush_error is not None:
                print("warning: telemetry flush failed: %s" % flush_error,
                      file=sys.stderr)
    if tracer is not None:
        obs.disable_tracing()
        spans = tracer.snapshot()
        chrome_path = os.path.join(args.trace_dir, "run_all.trace.json")
        obs.write_chrome_trace(spans, chrome_path, parent_pid=tracer.pid)
        obs.write_jsonl(spans,
                        os.path.join(args.trace_dir, "run_all.trace.jsonl"))
        print("\ntrace written to %s" % chrome_path)
    if args.json:
        payload = {
            "generated_by": "benchmarks/run_all.py",
            "benchmarks": records,
            "metrics": merged_metrics(records),
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print("\nper-benchmark metrics written to %s" % args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
