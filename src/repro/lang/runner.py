"""High-level FlowLang API: compile, measure, check, lockstep.

The typical workflow mirrors the paper's tool usage:

1. ``measure()`` one or more test executions to get a
   :class:`~repro.core.report.FlowReport` (bits revealed + min cut);
2. derive a :class:`~repro.core.policy.CutPolicy` from the report;
3. enforce the policy on later runs with ``check()`` (tainting-based,
   Section 6.2) or ``lockstep()`` (output-comparison, Section 6.3).
"""

from __future__ import annotations

import hashlib

from .. import obs
from ..core.checking import CheckTracker
from ..core.lockstep import run_lockstep
from ..core.measure import (check_multi_run_collapse, measure_graph,
                             measure_runs)
from ..core.tracker import CollapsingTraceBuilder, TraceBuilder
from .checker import Checker
from .compiler import compile_program
from .parser import parse
from .vm import VM, NullTracker, check_budgets


class RunResult:
    """A measured execution: the flow report plus the concrete run."""

    def __init__(self, report, outputs, output_bytes, vm):
        self.report = report
        self.outputs = outputs
        self.output_bytes = bytes(output_bytes)
        self.vm = vm

    @property
    def bits(self):
        return self.report.bits

    def __repr__(self):
        return "RunResult(bits=%s, outputs=%d)" % (self.report.bits,
                                                   len(self.outputs))


def compile_source(source, filename="<source>"):
    """Lex, parse, type-check, and compile FlowLang source."""
    program = parse(source, filename)
    checker = Checker(program)
    checker.check()
    return compile_program(program, checker)


#: Compiled-program cache for :func:`compile_cached`, keyed by
#: (sha256 of the source, filename).  Bounded LRU; compiled programs
#: are immutable once built (the VM never mutates them — ``measure_many``
#: already reuses one across runs), so sharing is safe.
_COMPILE_CACHE = {}
_COMPILE_CACHE_LIMIT = 64


def compile_cached(source, filename="<source>"):
    """:func:`compile_source` with memoization by source hash.

    The batch engine's common case is many runs of the *same* program
    over different secrets; caching skips the lex/parse/check/compile
    work on every run after a worker's first.  Hits are counted under
    the ``lang.compile_cache_hits`` metric.
    """
    key = (hashlib.sha256(source.encode("utf-8")).hexdigest(), filename)
    compiled = _COMPILE_CACHE.pop(key, None)
    if compiled is not None:
        _COMPILE_CACHE[key] = compiled  # re-insert: most recently used
        obs.get_metrics().incr("lang.compile_cache_hits")
        return compiled
    compiled = compile_source(source, filename)
    _COMPILE_CACHE[key] = compiled
    while len(_COMPILE_CACHE) > _COMPILE_CACHE_LIMIT:
        _COMPILE_CACHE.pop(next(iter(_COMPILE_CACHE)))
    return compiled


def execute(compiled, secret_input=b"", public_input=b"", tracker=None,
            entry="main", region_check="warn", lazy_regions=True,
            interceptor=None, max_steps=None, deadline_seconds=None,
            exit_observable=True, finish=True, backend=None):
    """Run a compiled program; returns ``(vm, finish_result)``.

    ``max_steps`` bounds execution in steps, ``deadline_seconds`` in
    wall-clock time (enforced in the VM step loop, raising
    :class:`~repro.errors.VMTimeout`); either may be ``None``.
    ``backend`` selects the VM's execution backend
    (``"reference"``/``"fast"``/``"auto"``; see
    ``docs/backends.md``).
    """
    tracker = tracker if tracker is not None else TraceBuilder()
    kwargs = {}
    if max_steps is not None:
        kwargs["max_steps"] = max_steps
    if deadline_seconds is not None:
        kwargs["deadline_seconds"] = deadline_seconds
    vm = VM(compiled, tracker, secret_input=secret_input,
            public_input=public_input, region_check=region_check,
            lazy_regions=lazy_regions, interceptor=interceptor,
            backend=backend, **kwargs)
    with obs.get_tracer().span("lang.execute", entry=entry) as span:
        result = vm.run(entry=entry, finish=finish,
                        exit_observable=exit_observable)
        span.set(outputs=len(vm.outputs))
    return vm, result


def _make_tracker(online, collapse, backend=None):
    """Tracker for one measuring run; online mode collapses while tracing."""
    if not online:
        return TraceBuilder()
    if collapse == "none":
        raise ValueError("online=True collapses during tracing; "
                         "collapse='none' is not available")
    return CollapsingTraceBuilder(context_sensitive=(collapse == "context"),
                                  backend=backend)


def measure(source_or_compiled, secret_input=b"", public_input=b"",
            collapse="context", entry="main", region_check="warn",
            lazy_regions=True, exit_observable=True, filename="<source>",
            max_steps=None, deadline_seconds=None, online=False,
            backend=None):
    """Measure the information one execution reveals.

    Accepts either FlowLang source text or an already-compiled program.
    With ``online=True`` the graph is collapsed by ``collapse`` *while
    tracing* (Section 5.2 online), keeping the live graph
    coverage-sized on long runs; the report is equivalent to the
    post-hoc collapse.  ``max_steps``/``deadline_seconds`` bound the
    run (steps / wall seconds); a budget below 1 step or not above 0
    seconds raises ``ValueError``.  Returns a :class:`RunResult`.
    """
    check_budgets(max_steps, deadline_seconds)
    compiled = _ensure_compiled(source_or_compiled, filename)
    tracker = _make_tracker(online, collapse, backend=backend)
    span = obs.get_tracer().span("lang.measure", collapse=collapse,
                                 online=bool(online))
    with span:
        with obs.get_metrics().phase("trace"):
            vm, graph = execute(compiled, secret_input, public_input,
                                tracker, entry=entry,
                                region_check=region_check,
                                lazy_regions=lazy_regions,
                                max_steps=max_steps,
                                deadline_seconds=deadline_seconds,
                                exit_observable=exit_observable,
                                backend=backend)
        report = measure_graph(graph, collapse=collapse,
                               stats=tracker.stats, warnings=vm.warnings)
        span.set(bits=report.bits)
    return RunResult(report, vm.outputs, vm.output_bytes, vm)


def measure_live(source_or_compiled, secret_input=b"", public_input=b"",
                 collapse="location", entry="main", region_check="warn",
                 filename="<source>", online=False, backend=None):
    """Measure with per-output flow snapshots (§8.1's real-time mode).

    The paper observes the battleship flows "in real time by running
    our tool in a mode that recomputes the flow on every program
    output".  ``online=True`` keeps the live graph collapsed while
    tracing, which makes the per-output re-solves cheap on long runs.
    Returns ``(final RunResult, series)`` where ``series[i]`` is the
    flow bound right after the i-th output event.
    """
    compiled = _ensure_compiled(source_or_compiled, filename)
    tracker = _make_tracker(online, collapse, backend=backend)
    series = []

    def snapshot(vm):
        report = measure_graph(tracker.graph, collapse=collapse)
        series.append(report.bits)

    vm = VM(compiled, tracker, secret_input=secret_input,
            public_input=public_input, region_check=region_check,
            output_hook=snapshot, backend=backend)
    graph = vm.run(entry=entry)
    report = measure_graph(graph, collapse=collapse, stats=tracker.stats,
                           warnings=vm.warnings)
    return RunResult(report, vm.outputs, vm.output_bytes, vm), series


def measure_many(source_or_compiled, secret_inputs, public_input=b"",
                 collapse="context", entry="main", region_check="warn",
                 filename="<source>", backend=None):
    """Measure several runs *together* for multi-run soundness (§3.2).

    Returns ``(combined_report, per_run_results)`` where the per-run
    results carry each run's independent report for comparison.  A
    ``collapse`` outside ``MULTI_RUN_COLLAPSE_MODES`` raises
    ``ValueError`` before any run is traced.
    """
    check_multi_run_collapse(collapse)
    compiled = _ensure_compiled(source_or_compiled, filename)
    graphs = []
    stats_list = []
    per_run = []
    warnings = []
    span = obs.get_tracer().span("lang.measure_many", collapse=collapse)
    with span:
        for secret in secret_inputs:
            tracker = TraceBuilder()
            with obs.get_metrics().phase("trace"):
                vm, graph = execute(compiled, secret, public_input, tracker,
                                    entry=entry, region_check=region_check,
                                    backend=backend)
            graphs.append(graph)
            stats_list.append(tracker.stats)
            warnings.extend(vm.warnings)
            per_run.append(RunResult(
                measure_graph(graph, collapse="none", stats=tracker.stats),
                vm.outputs, vm.output_bytes, vm))
        combined = measure_runs(graphs, collapse=collapse,
                                stats_list=stats_list, warnings=warnings)
        span.set(runs=len(graphs), bits=combined.bits)
    return combined, per_run


def check(source_or_compiled, policy, secret_input=b"", public_input=b"",
          entry="main", region_check="warn", filename="<source>",
          backend=None):
    """Tainting-based policy check of one run (Section 6.2).

    Returns a :class:`~repro.core.checking.CheckResult`.
    """
    compiled = _ensure_compiled(source_or_compiled, filename)
    tracker = CheckTracker(policy)
    _vm, result = execute(compiled, secret_input, public_input, tracker,
                          entry=entry, region_check=region_check,
                          backend=backend)
    return result


def lockstep(source_or_compiled, policy, real_secret, dummy_secret,
             public_input=b"", entry="main", filename="<source>"):
    """Output-comparison check (Section 6.3): two mostly-uninstrumented runs.

    Returns a :class:`~repro.core.lockstep.LockstepResult`.
    """
    compiled = _ensure_compiled(source_or_compiled, filename)

    def run_one(secret, interceptor):
        execute(compiled, secret, public_input, NullTracker(),
                entry=entry, region_check="off", lazy_regions=False,
                interceptor=interceptor)

    return run_lockstep(run_one, real_secret, dummy_secret, policy)


def _ensure_compiled(source_or_compiled, filename):
    if isinstance(source_or_compiled, str):
        return compile_cached(source_or_compiled, filename)
    return source_or_compiled
