"""Traced replays: each workload's op, one span per public layer call.

A replay performs the same work as the workload's ``op`` through the
same public functions, calling them one layer at a time so each call
can be wrapped in a span.  Spans live in memory (:class:`Recorder`)
and are turned into per-layer self times by :func:`layer_table`.
Nothing here reaches inside ``src/``: the layers are timed only at the
public boundaries the benchmark calls.

Span records are tuples ``(id, name, start, end, parent, op)`` with
``perf_counter`` times; on Linux that clock is system-wide monotonic,
so spans a pool worker returns line up with the parent's.
"""

from __future__ import annotations

import io
import time
from array import array

from workloads import Batch, MeasurePy, fold_bits, parse_distinct

_now = time.perf_counter


class _Span:
    __slots__ = ("rec", "name", "sid", "parent", "start", "end")

    def __init__(self, rec, name):
        self.rec = rec
        self.name = name

    def __enter__(self):
        rec = self.rec
        self.sid = rec._next
        rec._next += 1
        self.parent = rec._stack[-1] if rec._stack else None
        rec._stack.append(self.sid)
        self.start = _now()
        return self

    def __exit__(self, *exc):
        self.end = _now()
        rec = self.rec
        rec._stack.pop()
        rec.spans.append((self.sid, self.name, self.start, self.end,
                          self.parent, rec.op))
        return False


class Recorder:
    """In-memory span list; ``op`` tags every span with the current op.

    :meth:`pack` moves the spans recorded so far into compact arrays
    (about 50 bytes a span instead of 200), so a traced run can keep
    millions of spans; :meth:`packed` reads them back.
    """

    def __init__(self):
        self.spans = []
        self.op = None
        self._next = 0
        self._stack = []
        self._ids, self._parents = array("q"), array("q")
        self._starts, self._ends = array("d"), array("d")
        self._names, self._ops = [], []

    def pack(self):
        """Move :attr:`spans` into compact storage and return them."""
        spans, self.spans = self.spans, []
        for sid, name, start, end, parent, op in spans:
            self._ids.append(sid)
            self._parents.append(-1 if parent is None else parent)
            self._starts.append(start)
            self._ends.append(end)
            self._names.append(name)
            self._ops.append(op)
        return spans

    def packed(self):
        """Every packed span, as a tuple, in recording order."""
        for k, sid in enumerate(self._ids):
            parent = self._parents[k]
            yield (sid, self._names[k], self._starts[k], self._ends[k],
                   None if parent < 0 else parent, self._ops[k])

    def span(self, name):
        return _Span(self, name)

    def interval(self, name, start, end):
        """A leaf span measured by the caller, under the current span:
        for tight loops, where back-to-back intervals leave no gap."""
        self.spans.append((self._next, name, start, end, self._stack[-1],
                           self.op))
        self._next += 1

    def adopt(self, spans, parent):
        """Re-number spans recorded elsewhere (a pool worker) and hang
        their roots under ``parent``."""
        ids = {}
        for sid, *_ in spans:
            ids[sid] = self._next
            self._next += 1
        for sid, name, start, end, old_parent, _op in spans:
            self.spans.append((ids[sid], name, start, end,
                               ids.get(old_parent, parent), self.op))


def _covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """``{span id: self seconds}``: duration minus the part of it that
    child spans cover (a union, so parallel children count once)."""
    children = {}
    for sid, _name, start, end, parent, _op in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {sid: (end - start) - _covered(children.get(sid, ()), start, end)
            for sid, _name, start, end, _parent, _op in spans}


def layer_table(spans):
    """Per-op layer self time: ``{op: {layer name: seconds}}``, plus
    ``{op: op wall}`` for the ``op`` root spans.

    The root span's own self time is what no named layer covers; it is
    reported under ``"unattributed"``.
    """
    own = self_times(spans)
    table = {}
    walls = {}
    for sid, name, start, end, _parent, op in spans:
        row = table.setdefault(op, {})
        if name == "op":
            walls[op] = end - start
            name = "unattributed"
        row[name] = row.get(name, 0.0) + own[sid]
    return table, walls


# ----------------------------------------------------------------------
# Replays.  Each returns ``(summary, counts)``: the oracle summary, the
# same tuple the untimed op's ``summary`` gives, and per-op work counts.


def replay_measure_py(rec, text):
    from repro.apps.bzip2.compressor import DEFAULT_BLOCK_SIZE, compress
    from repro.core.measure import measure_graph
    from repro.pytrace import Session
    with rec.span("op"):
        session = Session(online_collapse="location")
        with rec.span("shadow.secret_bytes"):
            secret = session.secret_bytes(text)
        with rec.span("pytrace.run"):
            out = compress(secret, session=session,
                           block_size=DEFAULT_BLOCK_SIZE)
        with rec.span("shadow.output_bytes"):
            session.output_bytes(out)
        with rec.span("tracker.finish"):
            graph = session.finish()
        stats = session.tracker.stats
        with rec.span("measure.graph"):
            report = measure_graph(graph, collapse="location", stats=stats)
    counts = {
        "pytrace.events": stats["operations"] + stats["implicit_flows"],
        "tracker.raw_edges": stats["graph_edges"],
        "graph.collapsed_edges": graph.num_edges,
    }
    return (report.bits, graph.num_nodes, graph.num_edges), counts


def batch_job(payload):
    """The batch worker's job, made of the same public pieces as
    ``repro.batch.runs``' own, returning its spans with its result."""
    from repro.core.measure import measure_graph
    from repro.core.tracker import CollapsingTraceBuilder
    from repro.graph.serialize import dumps_graph
    from repro.lang import compile_cached, execute
    source, secret, backend = payload
    rec = Recorder()
    with rec.span("batch.job"):
        with rec.span("lang.compile"):
            compiled = compile_cached(source)
        tracker = CollapsingTraceBuilder(context_sensitive=True,
                                         backend=backend)
        with rec.span("lang.execute"):
            vm, graph = execute(compiled, secret, b"", tracker,
                                backend=backend)
        with rec.span("measure.graph"):
            report = measure_graph(graph, collapse="context",
                                   stats=tracker.stats, warnings=vm.warnings)
        with rec.span("serialize.dump"):
            text = dumps_graph(graph)
    return {"graph": text, "stats": dict(tracker.stats),
            "warnings": list(vm.warnings), "bits": report.bits,
            "steps": vm.steps, "collapsed_edges": graph.num_edges,
            "spans": rec.spans}


def replay_batch(rec, secrets):
    from repro.batch import BatchEngine
    from repro.core.combine import StreamingCombiner
    from repro.graph.serialize import load_graph
    from repro.shadow import resolve_backend
    source = Batch.source()
    with rec.span("op"):
        backend = resolve_backend(None)
        payloads = [(source, bytes(secret), backend) for secret in secrets]
        with rec.span("batch.map") as map_span:
            outcomes = BatchEngine(Batch.JOBS).map(batch_job, payloads)
        graphs = []
        for outcome in outcomes:
            rec.adopt(outcome["spans"], map_span.sid)
            with rec.span("serialize.load"):
                graphs.append(load_graph(io.StringIO(outcome["graph"])))
        combiner = StreamingCombiner(context_sensitive=True)
        for graph in graphs:
            with rec.span("combine.add"):
                combiner.add(graph)
        with rec.span("combine.report"):
            report = combiner.report(
                stats_list=[o["stats"] for o in outcomes],
                warnings=[w for o in outcomes for w in o["warnings"]])
    map_wall = map_span.end - map_span.start
    busy = sum(end - start for _sid, name, start, end, _p, op in rec.spans
               if name == "batch.job" and op == rec.op)
    counts = {
        "lang.vm_steps": sum(o["steps"] for o in outcomes),
        "tracker.raw_edges": sum(o["stats"]["graph_edges"]
                                 for o in outcomes),
        "graph.collapsed_edges": sum(o["collapsed_edges"] for o in outcomes),
        "serialize.bytes": sum(len(o["graph"].encode("utf-8"))
                               for o in outcomes),
        "batch.worker_busy_s": busy,
        "batch.idle_share": 1.0 - busy / (Batch.JOBS * map_wall),
        "combine.graph_edges": combiner.graph.num_edges,
    }
    return (report.bits,), counts


def replay_corpus(rec, corpus, root, fold=True):
    """``combine_store_jobs(store, jobs=1)`` unrolled: the corpus's
    fan-in is its whole length, so only the root fold runs.

    With ``fold``, the plain in-memory fold of the same corpus then runs
    outside the op as its own root span: the target the store path is
    compared against, not part of its time.
    """
    from repro.core.combine import IncrementalKraft, StreamingCombiner
    from repro.store import ShardStore
    with rec.span("op"):
        with rec.span("store.open"):  # creates the root and objects/
            store = ShardStore(root)
        start = _now()
        for text in corpus:
            before = store.distinct
            store.put_text(text)
            end = _now()
            rec.interval("store.put_new" if store.distinct != before
                         else "store.put_hit", start, end)
            start = end
        entries = store.multiplicities()
        metas = {}
        for digest, _ in entries:
            with rec.span("store.meta"):
                metas[digest] = store.meta(digest)
        if all(metas[d]["dedup_safe_context"] for d, _ in entries):
            refs = entries
        else:
            refs = [(digest, 1) for digest in store.order()]
        with rec.span("combine.kraft"):
            kraft = IncrementalKraft()
            gids = [kraft.admit(metas[d]["source_cap"], metas[d]["sink_cap"],
                                mult) for d, mult in refs]
            kraft.seal()
        combiner = StreamingCombiner(context_sensitive=True)
        acc = None
        for (digest, mult), gid in zip(refs, gids):
            meta = metas[digest]
            with rec.span("store.get"):
                graph = store.get(digest)
            with rec.span("combine.add"):
                combiner.add(graph, times=mult,
                             original_nodes=meta["nodes"],
                             original_edges=meta["edges"], run_count=1)
            with rec.span("combine.kraft"):
                acc = gid if acc is None else kraft.merge(
                    [acc, gid], combiner.graph.source_capacity(),
                    combiner.graph.sink_capacity())
        with rec.span("combine.kraft"):
            kraft.finalize(combiner.bits)
        with rec.span("combine.report"):
            combiner.report()
        with rec.span("store.open"):
            store.close()
    distinct = store.distinct
    stored = store.stats()
    if fold:
        graphs = parse_distinct(corpus)
        with rec.span("collapse.fold"):
            fold = fold_bits(graphs, corpus)
        if fold != combiner.bits:
            raise AssertionError("plain fold %d bits, store path %d bits"
                                 % (fold, combiner.bits))
    counts = {
        "store.dedup_ratio": 1.0 - distinct / len(corpus),
        "store.bytes": stored["bytes"],
        "combine.graph_edges": combiner.graph.num_edges,
    }
    return (combiner.bits, distinct), counts


def replay(workload, rec, item, root=None, first=True):
    """Replay one op; ``first`` marks an item's first op of the run."""
    if workload is MeasurePy:
        return replay_measure_py(rec, item)
    if workload is Batch:
        return replay_batch(rec, item)
    return replay_corpus(rec, item, root, fold=first)
