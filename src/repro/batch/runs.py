"""Batch frontends: multi-run, multi-secret, and corpus measurement.

Each frontend pairs a module-level *job function* (what a worker
process executes) with a parent-side merge.  Workers trace with online
collapse on, so what crosses the process boundary is a coverage-sized
collapsed graph in the ``flowgraph-v1`` text format plus plain-data
summaries — never VM state or label objects.  The parent re-combines
worker graphs through :func:`_combine`, the one Section 3.2 multi-run
combine every entry point shares, which keeps the combined bound
Kraft-sound across the whole batch exactly as the serial pipeline does.

``jobs=1`` runs the very same job functions in-process (including the
dump/load round trip), so the parallel and serial paths cannot drift
apart: the equivalence suite in ``tests/batch`` asserts bit-identical
bounds, cuts, and combined-graph serializations.

Fault tolerance: every frontend accepts ``timeout``/``retries``/
``on_error`` (or a prebuilt :class:`~repro.batch.engine.FaultPolicy`
via ``faults=``).  Under ``on_error="collect"`` a failed run no longer
aborts the batch — but the Section 3 Kraft-inequality merge makes
*silently* skipping a failed run unsound, so degradation is explicit:
failed runs are excluded from the combined graph, reported in a
``failures`` field, the Kraft sum is computed only over the succeeded
runs, and the report is marked ``partial`` so no caller can mistake it
for a complete bound.
"""

from __future__ import annotations

import io
import time
from contextlib import ExitStack

from .. import obs
from ..core.combine import (IncrementalKraft, StreamingCombiner,
                            kraft_satisfied, kraft_sum)
from ..core.measure import (MULTI_RUN_COLLAPSE_MODES, measure_graph,
                            measure_runs)
from ..errors import BatchError, GraphError, StoreError
from ..graph.collapse import collapse_graphs
from ..graph.maxflow import dinic_max_flow
from ..graph.mincut import MinCut
from ..graph.serialize import dump_graph, load_graph
from .engine import BatchEngine, FaultPolicy, JobFailure

def _check_collapse(collapse):
    # Workers ship *collapsed* graphs, so the transfer volume stays
    # coverage-sized, and the parent merges them by label.
    if collapse not in MULTI_RUN_COLLAPSE_MODES:
        raise ValueError("batch collapse must be one of %r, got %r"
                         % (MULTI_RUN_COLLAPSE_MODES, collapse))


def _fault_policy(faults, timeout, retries, on_error):
    """One :class:`FaultPolicy` from either form of configuration."""
    if faults is not None:
        if timeout is not None or retries or on_error != "raise":
            raise ValueError("pass either faults= or individual "
                             "timeout/retries/on_error kwargs, not both")
        return faults
    return FaultPolicy(timeout=timeout, retries=retries, on_error=on_error)


def _corrupt_graph_failure(index, error, metrics):
    """A worker shipped home an unloadable graph: that is *its* failure.

    Counted under ``batch.failures`` like any other job failure, so the
    parent's accounting stays consistent with what it actually merged.
    """
    if metrics.enabled:
        metrics.incr("batch.failures")
    return JobFailure(index, type(error).__name__,
                      "corrupt worker graph: %s" % error)


def _mark_partial(report, failed, attempted):
    report.partial = True
    report.warnings.append(
        "partial result: %d of %d runs failed and were excluded; the "
        "combined bound covers only the %d surviving runs (the §3 "
        "Kraft guarantee says nothing about the failed runs)"
        % (failed, attempted, attempted - failed))
    return report


def _dump_text(graph, category_edges=None):
    buffer = io.StringIO()
    dump_graph(graph, buffer, category_edges=category_edges)
    return buffer.getvalue()


def _load_text(text):
    return load_graph(io.StringIO(text))


def _chunks(count, parts):
    """Contiguous, order-preserving ``(lo, hi)`` slices of ``range(count)``.

    Sizes differ by at most one.  Contiguity matters for more than
    balance: chunked collapsing is bit-identical to whole-set collapsing
    only when every chunk preserves the original graph order.
    """
    parts = min(parts, count)
    base, extra = divmod(count, parts)
    bounds = []
    lo = 0
    for index in range(parts):
        hi = lo + base + (1 if index < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


# ----------------------------------------------------------------------
# Multi-run measurement of one program (Section 3.2 over a secret list)


class BatchResult:
    """A batch of runs measured together: combined report + per-run bounds.

    ``per_run_bits`` are each *succeeded* run's independent bounds
    (solved on its own collapsed graph); ``report`` is the Kraft-sound
    combined bound over those runs.  ``kraft_sum``/``per_run_sound``
    expose the Section 3.2 arithmetic for the independent bounds, so
    callers can see when the combined bound is doing real work.

    ``failures`` holds one :class:`~repro.batch.engine.JobFailure` per
    failed run (only under ``on_error="collect"``; the default policy
    raises instead).  When any run failed, ``partial`` is ``True``, the
    combined report is marked partial, and every derived quantity —
    ``bits``, ``kraft_sum``, ``per_run_sound`` — covers the surviving
    runs only.
    """

    def __init__(self, report, per_run_bits, jobs, failures=()):
        self.report = report
        self.per_run_bits = list(per_run_bits)
        self.jobs = jobs
        self.failures = list(failures)

    @property
    def bits(self):
        """The combined (Kraft-sound) bound in bits — partial when
        ``failures`` is non-empty."""
        return self.report.bits

    @property
    def runs(self):
        """Succeeded runs (the ones the combined bound covers)."""
        return len(self.per_run_bits)

    @property
    def attempted(self):
        """All runs the batch was asked for, failed ones included."""
        return len(self.per_run_bits) + len(self.failures)

    @property
    def partial(self):
        """Whether any run failed (and was excluded from the bound)."""
        return bool(self.failures)

    @property
    def kraft_sum(self):
        """Exact ``sum_i 2**-k(i)`` over the independent per-run bounds."""
        return kraft_sum(self.per_run_bits)

    @property
    def per_run_sound(self):
        """Whether the independent bounds alone satisfy Kraft (§3.2)."""
        return kraft_satisfied(self.per_run_bits)

    def __repr__(self):
        return "BatchResult(runs=%d, bits=%d, jobs=%d%s)" % (
            self.runs, self.bits, self.jobs,
            ", failures=%d" % len(self.failures) if self.failures else "")


def _trace_run_job(payload):
    """Trace one (secret, public) run; returns a picklable summary.

    Traces with online collapse so the shipped graph is coverage-sized,
    measures the run's independent bound on it, and serializes it for
    the parent-side combination.
    """
    from ..core.tracker import CollapsingTraceBuilder
    from ..lang.runner import compile_cached, execute
    (source, filename, secret, public, collapse, entry, max_steps,
     deadline_seconds, backend) = payload
    compiled = compile_cached(source, filename)
    tracker = CollapsingTraceBuilder(
        context_sensitive=(collapse == "context"), backend=backend)
    with obs.get_metrics().phase("trace"):
        vm, graph = execute(compiled, secret, public, tracker, entry=entry,
                            max_steps=max_steps,
                            deadline_seconds=deadline_seconds,
                            backend=backend)
    report = measure_graph(graph, collapse=collapse, stats=tracker.stats,
                           warnings=vm.warnings)
    return {
        "graph": _dump_text(graph),
        "stats": dict(tracker.stats),
        "warnings": list(vm.warnings),
        "bits": report.bits,
    }


def measure_program_runs(source, secret_inputs, public_input=b"",
                         collapse="context", jobs=1, filename="<source>",
                         entry="main", max_steps=None, deadline_seconds=None,
                         timeout=None, retries=0, on_error="raise",
                         faults=None, warm_start=True, backend=None,
                         store=None):
    """Measure one program over many secrets, ``jobs`` runs at a time.

    The batch analogue of :func:`repro.lang.runner.measure_many`: each
    secret is traced (online-collapsed) in a worker, and the workers'
    serialized graphs are re-combined for the Section 3.2 Kraft-sound
    bound by the one multi-run combine — a root-only fold in the parent
    by default, or the tree-reduction merge across the pool when a
    shard ``store`` is given.  ``max_steps``/``deadline_seconds`` bound each
    run inside its worker (a run past its deadline raises ``VMTimeout``
    — a non-transient job failure); a non-positive budget raises
    ``ValueError`` before any worker starts.  ``timeout``/``retries``/
    ``on_error`` configure the engine's
    :class:`~repro.batch.engine.FaultPolicy`.
    Returns a :class:`BatchResult` — partial, with a ``failures`` list,
    when runs failed under ``on_error="collect"``.

    ``warm_start`` picks which of the two combines merges the worker
    graphs.  With ``True`` (the default) they go through the one
    multi-run combine, a :class:`~repro.core.combine.StreamingCombiner`
    root fold that solves once at the end.  With ``False`` (``repro
    batch --no-warm-start``) they go to
    :func:`~repro.core.measure.measure_runs`, the serial one-shot
    reference.  The bound, combined graph, and minimum cut are
    identical either way.  A ``store`` always takes the streaming fold.

    ``store`` (a :class:`~repro.store.ShardStore` or a directory path,
    created if missing) switches the merge to the corpus pipeline: each
    run's shard is appended to the store content-addressed (identical
    collapsed runs dedup to a multiplicity), and the combined report is
    computed by :func:`combine_store_jobs` — a tree reduction across
    the worker pool in O(coverage) memory per process.  The report then
    covers the *whole* store corpus, including shards from earlier
    batches appended to the same store; ``per_run_bits`` still covers
    only this batch's runs.

    ``backend`` selects each worker's VM execution backend
    (``"reference"``/``"fast"``/``"auto"``; see
    ``docs/backends.md``).
    It is resolved once in the parent so every worker runs the same
    backend regardless of per-process environment.
    """
    # Load the jobs' modules before the pool forks, so no worker
    # compiles them itself.
    from ..lang import runner  # noqa: F401
    from ..lang.vm import check_budgets
    from ..shadow import resolve_backend
    _check_collapse(collapse)
    check_budgets(max_steps, deadline_seconds)
    backend = resolve_backend(backend)
    secrets = [bytes(secret) for secret in secret_inputs]
    payloads = [(source, filename, secret, bytes(public_input), collapse,
                 entry, max_steps, deadline_seconds, backend)
                for secret in secrets]
    engine = BatchEngine(jobs, faults=_fault_policy(faults, timeout,
                                                    retries, on_error))
    outcomes = engine.map(_trace_run_job, payloads)
    metrics = obs.get_metrics()
    t0 = time.perf_counter()
    graphs = []
    stats_list = []
    warnings = []
    bits = []
    failures = []
    shipped_bytes = 0
    with ExitStack() as cleanup, \
            obs.get_tracer().span("batch.merge", runs=len(outcomes)):
        shard_store = None if store is None else _open_store(store, cleanup)
        for index, outcome in enumerate(outcomes):
            if isinstance(outcome, JobFailure):
                failures.append(outcome)
                continue
            if metrics.enabled:
                shipped_bytes += len(outcome["graph"].encode("utf-8"))
            try:
                if shard_store is not None:
                    # The parent never materializes the graph: the text
                    # goes straight into the store (parsed only when its
                    # digest is new).
                    shard_store.put_text(outcome["graph"])
                else:
                    graphs.append(_load_text(outcome["graph"]))
            except GraphError as error:
                if not engine.faults.collecting:
                    raise
                failures.append(_corrupt_graph_failure(index, error,
                                                       metrics))
                continue
            stats_list.append(outcome["stats"])
            warnings.extend(outcome["warnings"])
            bits.append(outcome["bits"])
        if not bits:
            raise BatchError(
                "all %d runs failed; no combined bound exists (first "
                "failure: %s)" % (len(outcomes), failures[0]))
        # The combine times itself into batch.merge_seconds; the
        # parent's own share is the loop above (and the cold oracle).
        own_seconds = time.perf_counter() - t0
        context_sensitive = collapse == "context"
        if shard_store is not None:
            report = combine_store_jobs(
                shard_store, context_sensitive=context_sensitive,
                jobs=jobs, faults=engine.faults,
                stats_list=stats_list, warnings=warnings).report
        elif warm_start:
            # A root-only fold in the parent: no second pool, no disk.
            span = obs.get_tracer().span("measure.runs", runs=len(graphs),
                                         collapse=collapse, jobs=1)
            with span, metrics.phase("measure"):
                report = _combine([(graph, 1) for graph in graphs], None,
                                  context_sensitive, 1, engine.faults,
                                  stats_list=stats_list,
                                  warnings=warnings).report
                span.set(bits=report.bits)
        else:
            t1 = time.perf_counter()
            report = measure_runs(graphs, collapse=collapse,
                                  stats_list=stats_list, warnings=warnings)
            own_seconds += time.perf_counter() - t1
        if failures:
            _mark_partial(report, len(failures), len(outcomes))
    if metrics.enabled:
        metrics.incr("batch.graphs_bytes", shipped_bytes)
        metrics.add_seconds("batch.merge_seconds", own_seconds)
    return BatchResult(report, bits, engine.jobs, failures)


# ----------------------------------------------------------------------
# The §3.2 combine: tree reduction + streaming root fold, one solve


class StoreCombineResult:
    """A multi-run combine: report plus anytime-bound trail.

    ``report`` is the usual Kraft-sound combined
    :class:`~repro.core.report.FlowReport` (bit-identical to folding
    the runs one-shot); ``anytime`` is the
    :class:`~repro.core.combine.IncrementalKraft` trail — a monotone
    nonincreasing sequence of sound upper bounds, starting when the
    corpus is sealed and ending at the exact combined bound; ``levels``
    counts reduction levels (parent root fold included).
    """

    def __init__(self, report, anytime, levels, attempted, distinct,
                 covered, failures=()):
        self.report = report
        self.anytime = list(anytime)
        self.levels = levels
        self.attempted = attempted
        self.distinct = distinct
        #: runs the combined bound covers (== ``attempted`` unless partial)
        self.covered = covered
        self.failures = list(failures)

    @property
    def bits(self):
        return self.report.bits

    @property
    def runs(self):
        """Alias of :attr:`covered`."""
        return self.covered

    @property
    def partial(self):
        return bool(self.failures)

    def __repr__(self):
        return ("StoreCombineResult(runs=%d/%d, distinct=%d, bits=%d, "
                "levels=%d%s)"
                % (self.covered, self.attempted, self.distinct, self.bits,
                   self.levels,
                   ", failures=%d" % len(self.failures)
                   if self.failures else ""))


def _default_fanin(count, jobs):
    """Default reduction fan-in: one worker-sized chunk per level.

    Chosen so the first level splits the inputs into ``jobs``
    contiguous chunks; further levels keep reducing until one chunk
    remains for the parent-side root fold.
    """
    return max(2, -(-count // max(jobs, 1)))


def _tree_parts(count, jobs, fanin):
    """Chunk count for one reduction level (1 means: root fold next)."""
    if count <= fanin:
        return 1
    return min(jobs, -(-count // fanin))


def _store_combine_chunk_job(payload):
    """Left-fold one contiguous chunk of store shards in a worker.

    Streams the chunk one shard at a time (the worker holds the
    running combination plus a single shard — O(coverage) memory,
    whatever the chunk length) and writes the result back to the store
    as a content-addressed object, so only a digest crosses the
    process boundary.  Items are ``(digest, mult, nodes, edges,
    runs)`` with per-repeat original sizes.
    """
    from ..store import ShardStore
    root, items, context_sensitive = payload
    with ShardStore(root, create=False) as store:
        combined = None
        for digest, mult, _, _, _ in items:
            graph = store.get(digest)
            if combined is None:
                combined, _ = collapse_graphs(
                    [graph], context_sensitive=context_sensitive,
                    multiplicities=[mult])
            else:
                combined, _ = collapse_graphs(
                    [combined, graph], context_sensitive=context_sensitive,
                    multiplicities=[1, mult])
        digest = store.put_object(combined)
    return {
        "digest": digest,
        "source_cap": combined.source_capacity(),
        "sink_cap": combined.sink_capacity(),
        "original_nodes": sum(m * n for _, m, n, _, _ in items),
        "original_edges": sum(m * e for _, m, _, e, _ in items),
        "runs": sum(m * r for _, m, _, _, r in items),
    }


def _combine(refs, store, context_sensitive=True, jobs=1, faults=None,
             fanin=None, stats_list=None, warnings=None, metas=None):
    """The §3.2 multi-run combine; returns a :class:`StoreCombineResult`.

    Every combine entry point ends here.  ``refs`` is an ordered list
    of ``(shard, multiplicity)``, where a shard is the digest of an
    object in ``store`` or, for a root-only combine (``jobs=1`` and no
    ``fanin``, so ``store`` may be ``None``), an in-memory
    :class:`~repro.graph.flowgraph.FlowGraph`.  Each shard is admitted
    to an :class:`~repro.core.combine.IncrementalKraft` accountant,
    which is then sealed.  While more than one chunk remains, a
    reduction level left-folds contiguous chunks across the worker
    pool, exchanging only store digests.  The survivors are folded at
    the root through one :class:`~repro.core.combine.StreamingCombiner`,
    merging their Kraft groups step by step from the running graph's
    structural cuts, and the one max-flow solve of the combine then
    snaps the accountant to the exact bound.
    ``metas`` optionally maps digests to the store metadata the caller
    has already read, so no shard's metadata is read twice.

    The union-find merge is associative over ordered contiguous
    chunks, so the combined graph, bound, and cut equal the
    one-shot :func:`~repro.graph.collapse.collapse_graphs` + solve over
    the expanded refs, whatever the topology.  Under a collecting
    ``faults`` policy a failed chunk drops its subtree, a shard that
    fails to load at the root drops itself, and the report comes back
    partial.
    """
    if not refs:
        raise ValueError("nothing to combine: no shards given")
    engine = BatchEngine(jobs, faults=faults)
    if fanin is None:
        fanin = _default_fanin(len(refs), engine.jobs)
    elif fanin < 2:
        raise ValueError("fanin must be >= 2, got %r" % (fanin,))
    kraft = IncrementalKraft()
    metas = {} if metas is None else metas
    items = []
    gids = []
    for shard, mult in refs:
        if isinstance(shard, str):
            if shard not in metas:
                metas[shard] = store.meta(shard)
            meta = metas[shard]
            caps = (meta["source_cap"], meta["sink_cap"])
            sizes = (meta["nodes"], meta["edges"])
        else:
            caps = (shard.source_capacity(), shard.sink_capacity())
            sizes = (shard.num_nodes, shard.num_edges)
        gids.append(kraft.admit(caps[0], caps[1], mult))
        items.append((shard, mult, sizes[0], sizes[1], 1))
    kraft.seal()
    metrics = obs.get_metrics()
    t0 = time.perf_counter()
    failures = []
    levels = 0
    with obs.get_tracer().span("batch.merge", chunks=len(items)):
        while True:
            parts = _tree_parts(len(items), engine.jobs, fanin)
            if parts <= 1:
                break
            slices = _chunks(len(items), parts)
            payloads = [(store.root, items[lo:hi], context_sensitive)
                        for lo, hi in slices]
            outcomes = engine.map(_store_combine_chunk_job, payloads)
            levels += 1
            next_items = []
            next_gids = []
            for (lo, hi), outcome in zip(slices, outcomes):
                if isinstance(outcome, JobFailure):
                    failures.append(outcome)
                    for gid in gids[lo:hi]:
                        kraft.drop(gid)
                    continue
                next_gids.append(kraft.merge(gids[lo:hi],
                                             outcome["source_cap"],
                                             outcome["sink_cap"]))
                next_items.append((outcome["digest"], 1,
                                   outcome["original_nodes"],
                                   outcome["original_edges"],
                                   outcome["runs"]))
            if not next_items:
                raise BatchError(
                    "all %d combination chunks failed (first failure: %s)"
                    % (len(outcomes), failures[0]))
            items, gids = next_items, next_gids
        # Root level: fold the survivors in; the solve waits for the end.
        combiner = StreamingCombiner(context_sensitive=context_sensitive)
        acc_gid = None
        for index, ((shard, mult, nodes, edges, runs), gid) \
                in enumerate(zip(items, gids)):
            if isinstance(shard, str):
                try:
                    shard = store.get(shard)
                except (StoreError, GraphError) as error:
                    if not engine.faults.collecting:
                        raise
                    failures.append(_corrupt_graph_failure(index, error,
                                                           metrics))
                    kraft.drop(gid)
                    continue
            combiner.add(shard, times=mult, original_nodes=nodes,
                         original_edges=edges, run_count=runs)
            if acc_gid is None:
                acc_gid = gid
            else:
                acc_gid = kraft.merge(
                    [acc_gid, gid], combiner.graph.source_capacity(),
                    combiner.graph.sink_capacity())
        if combiner.graph is None:
            raise BatchError(
                "all %d shards failed to combine (first failure: %s)"
                % (len(items), failures[0]))
        levels += 1
        kraft.finalize(combiner.bits)
        report = combiner.report(stats_list=stats_list,
                                 warnings=list(warnings or []),
                                 failures=failures)
    attempted = sum(mult for _, mult in refs)
    if failures:
        _mark_partial(report, attempted - combiner.runs, attempted)
    if metrics.enabled:
        metrics.gauge("combine.tree_levels", levels)
        metrics.add_seconds("batch.merge_seconds",
                            time.perf_counter() - t0)
    return StoreCombineResult(report, kraft.trail, levels, attempted,
                              len({shard for shard, _ in refs}),
                              combiner.runs, failures)


def _open_store(store, cleanup, create=True):
    """A :class:`~repro.store.ShardStore` from a store or a directory
    path; a store opened here is closed when the ``cleanup``
    :class:`~contextlib.ExitStack` unwinds."""
    from ..store import ShardStore
    if isinstance(store, ShardStore):
        return store
    return cleanup.enter_context(ShardStore(store, create=create))


def combine_store_jobs(store, context_sensitive=True, jobs=1, fanin=None,
                       timeout=None, retries=0, on_error="raise",
                       faults=None, stats_list=None, warnings=None):
    """Combine a :class:`~repro.store.ShardStore` corpus by tree
    reduction; returns a :class:`StoreCombineResult`.

    The corpus is taken in its deduped first-occurrence view (digest +
    multiplicity) when every shard is dedup-safe, falling back to the
    literal manifest order otherwise — either way the combined graph,
    cut, and bound are bit-identical to folding the manifest's graphs
    through the plain :func:`~repro.graph.collapse.collapse_graphs`
    path.  Reduction levels run across the worker pool exchanging only
    store references; the root level streams the surviving subtrees
    through a :class:`~repro.core.combine.StreamingCombiner` and solves
    the result once.  Incremental Kraft accounting
    (:class:`~repro.core.combine.IncrementalKraft`) maintains a sound
    anytime upper bound throughout; the trail is returned as
    ``result.anytime``.

    Under ``on_error="collect"``, a failed subtree is dropped from both
    the combined graph and the anytime account; the report comes back
    partial.
    """
    with ExitStack() as cleanup:
        store = _open_store(store, cleanup, create=False)
        if not len(store):
            raise ValueError("combine_store_jobs needs a non-empty store "
                             "(no manifest entries in %s)" % store.root)
        entries = store.multiplicities()
        safe_key = ("dedup_safe_context" if context_sensitive
                    else "dedup_safe_location")
        metas = {digest: store.meta(digest) for digest, _ in entries}
        if all(metas[digest][safe_key] for digest, _ in entries):
            refs = entries
        else:
            # A shard with unmergeable-only nodes would contribute fresh
            # classes per repeat; keep the literal order so bit-identity
            # with the plain fold holds unconditionally.
            refs = [(digest, 1) for digest in store.order()]
        return _combine(refs, store, context_sensitive, jobs,
                        _fault_policy(faults, timeout, retries, on_error),
                        fanin, stats_list, warnings, metas)


# ----------------------------------------------------------------------
# Multi-secret category sweep (Section 10.1)


def _category_solve_job(payload):
    """Solve one category's restricted graph; returns the cut mask.

    Ships back only ``(category, flow_value, source_side_mask)`` — the
    parent rebuilds the :class:`~repro.graph.mincut.MinCut` against its
    own in-memory graph, so the cut carries the caller's original label
    objects, exactly as the serial sweep's does.
    """
    from ..core.multisecret import _restricted_copy
    text, category, category_edges = payload
    graph = _load_text(text)
    restricted = _restricted_copy(graph, category_edges, [category])
    value, residual = dinic_max_flow(restricted)
    return category, value, residual.source_side()


def measure_by_category_jobs(graph, category_edges, collapse="none",
                             stats=None, jobs=1, timeout=None, retries=0,
                             on_error="raise", faults=None):
    """Parallel per-category sweep; see
    :func:`repro.core.multisecret.measure_by_category`.

    One job per category solves the restricted graph; the joint bound
    is measured in the parent.  The per-category solves depend only on
    graph structure and capacities, so the serialized copy a worker
    solves yields the same flow value and the same canonical cut mask
    as the in-memory graph would.

    Under ``on_error="collect"``, categories whose solve job failed are
    missing from ``per_category`` and reported in the returned
    :class:`~repro.core.multisecret.CategoryBounds`' ``failures``.
    """
    from ..core.multisecret import CategoryBounds, _restricted_copy
    text = _dump_text(graph)
    categories = sorted(category_edges)
    payloads = [(text, category, dict(category_edges))
                for category in categories]
    engine = BatchEngine(jobs, faults=_fault_policy(faults, timeout,
                                                    retries, on_error))
    outcomes = engine.map(_category_solve_job, payloads)
    metrics = obs.get_metrics()
    t0 = time.perf_counter()
    per_category = {}
    reports = {}
    failures = []
    with obs.get_tracer().span("batch.merge", categories=len(outcomes)):
        for outcome in outcomes:
            if isinstance(outcome, JobFailure):
                failures.append(outcome)
                continue
            category, value, mask = outcome
            restricted = _restricted_copy(graph, category_edges, [category])
            per_category[category] = value
            reports[category] = MinCut(restricted, mask)
        joint = measure_graph(graph, collapse=collapse, stats=stats)
    if metrics.enabled:
        metrics.incr("batch.graphs_bytes",
                     len(text.encode("utf-8")) * len(payloads))
        metrics.add_seconds("batch.merge_seconds",
                            time.perf_counter() - t0)
    return CategoryBounds(per_category, joint.bits,
                          {"joint": joint, **reports}, failures=failures)


# ----------------------------------------------------------------------
# Corpus measurement (one job per program)


class ProgramResult:
    """Picklable summary of one corpus program's measurement."""

    __slots__ = ("name", "bits", "output_bytes", "warnings", "cut",
                 "seconds")

    def __init__(self, name, bits, output_bytes, warnings, cut, seconds):
        self.name = name
        self.bits = bits
        self.output_bytes = output_bytes
        #: run warnings, verbatim
        self.warnings = warnings
        #: the min cut as ``(kind, location, capacity)`` triples
        self.cut = cut
        #: in-worker wall time for this program
        self.seconds = seconds

    def __repr__(self):
        return "ProgramResult(%r, bits=%d, cut=%d)" % (
            self.name, self.bits, len(self.cut))


def _measure_program_job(payload):
    """Measure one program of a corpus (online-collapsed trace)."""
    from ..lang.runner import measure
    (name, source, secret, public, collapse, entry, max_steps,
     deadline_seconds, backend) = payload
    t0 = time.perf_counter()
    result = measure(source, secret, public, collapse=collapse,
                     entry=entry, filename=name, online=True,
                     max_steps=max_steps,
                     deadline_seconds=deadline_seconds, backend=backend)
    report = result.report
    cut = []
    for cut_edge in report.mincut.edges:
        label = cut_edge.label
        if label is None:
            cut.append((None, None, cut_edge.capacity))
        else:
            cut.append((label.kind, str(label.location),
                        cut_edge.capacity))
    return ProgramResult(name, report.bits, result.output_bytes,
                         list(report.warnings or []), cut,
                         time.perf_counter() - t0)


def measure_programs(items, collapse="context", jobs=1, entry="main",
                     max_steps=None, deadline_seconds=None, timeout=None,
                     retries=0, on_error="raise", faults=None):
    """Measure a corpus of independent programs, ``jobs`` at a time.

    ``items`` yields ``(name, source, secret_input)`` or ``(name,
    source, secret_input, public_input)`` tuples.  Unlike the multi-run
    frontends nothing is combined — the programs are unrelated, so the
    jobs ship back :class:`ProgramResult` summaries, in input order.
    Under ``on_error="collect"``, a failed program's slot holds its
    :class:`~repro.batch.engine.JobFailure` instead (check with
    ``isinstance``); the other programs' results are unaffected.  A
    non-positive ``max_steps``/``deadline_seconds`` raises
    ``ValueError`` before any worker starts.  The VM backend is
    resolved once here, from ``REPRO_BACKEND`` or detection, so every
    worker runs the same one whatever its own environment (an invalid
    selector raises ``ValueError`` before any worker starts, too).
    """
    from ..lang import runner  # noqa: F401  (before the pool forks)
    from ..lang.vm import check_budgets
    from ..shadow import resolve_backend
    _check_collapse(collapse)
    check_budgets(max_steps, deadline_seconds)
    backend = resolve_backend(None)
    payloads = []
    for item in items:
        if len(item) == 3:
            name, source, secret = item
            public = b""
        else:
            name, source, secret, public = item
        payloads.append((name, source, bytes(secret), bytes(public),
                         collapse, entry, max_steps, deadline_seconds,
                         backend))
    engine = BatchEngine(jobs, faults=_fault_policy(faults, timeout,
                                                    retries, on_error))
    return engine.map(_measure_program_job, payloads)
