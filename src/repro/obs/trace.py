"""Structured tracing: hierarchical spans over the measurement pipeline.

The metrics registry (:mod:`repro.obs.metrics`) answers *how much* — an
end-of-run total per catalogued name.  This module answers *when*: every
pipeline stage opens a :class:`Span` (a named interval with a parent, a
wall-clock start, a duration, and typed attributes such as graph sizes
and bits), so one run renders as a timeline instead of a totals table.
Batch workers trace under their own :class:`Tracer` and ship their
finished spans back to the parent alongside the metrics snapshot, where
:meth:`Tracer.adopt` re-roots them under the parent's ``batch.map`` span
— one timeline then shows the whole fan-out, worker tracks included.

Like the metrics registry, span *names are a documented contract*
(``docs/observability.md``, "Tracing"; :data:`SPAN_CATALOGUE` here) with
a drift test, and a live :class:`Tracer` rejects uncatalogued names.
The default process-wide instance is :data:`NULL_TRACER`, a no-op sink,
so instrumented code pays only an attribute lookup and an empty method
call per *stage* (never per event) when tracing is off.

Sinks:

* the in-memory recorder itself (``tracer.snapshot()``; surfaced as
  ``FlowReport.trace_spans``);
* :func:`write_jsonl` — one JSON object per span, append-friendly;
* :func:`write_chrome_trace` — Chrome ``trace_event`` JSON that loads
  in Perfetto / ``chrome://tracing`` with one track per process id.
"""

from __future__ import annotations

import json
import os
import time


class SpanSpec:
    """One catalogued span name: its stability and meaning."""

    __slots__ = ("name", "stability", "description")

    def __init__(self, name, stability, description):
        self.name = name
        self.stability = stability
        self.description = description

    def __repr__(self):
        return "SpanSpec(%r, %s)" % (self.name, self.stability)


def _span_specs():
    return [
        ("cli.command", "experimental",
         "one repro CLI subcommand invocation, end to end"),
        ("bench.run", "experimental",
         "one benchmark of the run_all.py harness"),
        ("lang.measure", "experimental",
         "one repro.lang.measure() call (compile excluded, trace through "
         "report)"),
        ("lang.measure_many", "experimental",
         "one multi-run repro.lang.measure_many() call"),
        ("lang.execute", "experimental",
         "one instrumented FlowLang VM run (the trace phase)"),
        ("pytrace.session", "experimental",
         "lifetime of a pytrace Session, construction to finish() "
         "(recorded retroactively at finish)"),
        ("measure.graph", "experimental",
         "one measure_graph() call: collapse + solve + mincut"),
        ("measure.runs", "experimental",
         "one measure_runs() call over a set of run graphs"),
        ("collapse.graphs", "experimental",
         "one post-hoc collapse_graphs() union-find pass"),
        ("collapse.online.materialize", "experimental",
         "materializing an online-collapsed trace into its final graph"),
        ("solve.dinic", "experimental",
         "one Dinic max-flow solve"),
        ("mincut.extract", "experimental",
         "extracting the canonical minimum cut from a saturated residual"),
        ("batch.map", "experimental",
         "one BatchEngine fan-out over a payload list"),
        ("batch.job", "experimental",
         "one batch job (in a worker process or in-process)"),
        ("batch.merge", "experimental",
         "parent-side merge of worker graphs/results after a fan-out"),
    ]


#: name -> :class:`SpanSpec`; insertion order is the canonical order of
#: the docs catalogue table.
SPAN_CATALOGUE = {}
for _name, _stability, _description in _span_specs():
    SPAN_CATALOGUE[_name] = SpanSpec(_name, _stability, _description)
del _name, _stability, _description


def span_names():
    """All catalogued span names, in canonical order."""
    return list(SPAN_CATALOGUE)


class Span:
    """One finished (or still-open) named interval.

    ``start`` is wall-clock epoch seconds (comparable across the
    processes of one machine, which is what lets worker spans land on
    the parent's timeline); ``duration`` is measured with the monotonic
    performance counter, so it is immune to clock adjustments.
    ``duration`` is ``None`` while the span is still open.
    """

    __slots__ = ("name", "span_id", "parent_id", "start", "duration",
                 "pid", "attrs")

    def __init__(self, name, span_id, parent_id, start, duration, pid,
                 attrs):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.duration = duration
        self.pid = pid
        self.attrs = attrs

    def to_dict(self):
        """The span as a plain (picklable, JSON-able) dict."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "duration": self.duration,
            "pid": self.pid,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, payload):
        return cls(payload["name"], payload["span_id"],
                   payload.get("parent_id"), payload["start"],
                   payload.get("duration"), payload["pid"],
                   dict(payload.get("attrs") or {}))

    def __repr__(self):
        return "Span(%r, id=%s, parent=%s, dur=%s)" % (
            self.name, self.span_id, self.parent_id, self.duration)


class _NullSpan:
    """Open-span handle that does nothing (shared singleton)."""

    __slots__ = ()
    span_id = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def set(self, **attrs):
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """No-op sink with the :class:`Tracer` interface.

    Accepts any name without validation; every operation is a constant
    handful of bytecodes, so instrumented stages can call
    unconditionally.
    """

    __slots__ = ()
    enabled = False
    current_id = None
    current_name = None

    def span(self, name, **attrs):
        return _NULL_SPAN

    def record(self, name, start, duration, **attrs):
        pass

    def adopt(self, span_dicts, parent_id=None):
        pass

    def snapshot(self):
        """An empty list: a disabled tracer observes nothing."""
        return []

    @property
    def spans(self):
        return []


class _OpenSpan:
    """Context manager for one live span of a :class:`Tracer`."""

    __slots__ = ("_tracer", "_span", "_t0")

    def __init__(self, tracer, span):
        self._tracer = tracer
        self._span = span

    @property
    def span_id(self):
        return self._span.span_id

    def set(self, **attrs):
        """Attach (or overwrite) attributes on the still-open span."""
        self._span.attrs.update(attrs)

    def __enter__(self):
        self._span.start = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self._span.duration = time.perf_counter() - self._t0
        if exc_type is not None:
            self._span.attrs["error"] = exc_type.__name__
        self._tracer._close(self._span)
        return False


class Tracer:
    """A live span recorder, pre-validated against the catalogue.

    Spans nest through an explicit stack: ``span()`` opens a child of
    the innermost open span (or a root span), and closing appends the
    finished :class:`Span` to the in-memory recording.  The tracer is
    process-wide and not thread-safe, like the metrics registry.
    """

    __slots__ = ("pid", "_spans", "_stack", "_next_id")
    enabled = True

    def __init__(self):
        self.pid = os.getpid()
        self._spans = []
        self._stack = []
        self._next_id = 1

    def _check(self, name):
        if name not in SPAN_CATALOGUE:
            raise KeyError("span %r is not in the catalogue; add it to "
                           "repro/obs/trace.py and docs/observability.md"
                           % name)

    def _alloc(self):
        span_id = self._next_id
        self._next_id += 1
        return span_id

    @property
    def current_id(self):
        """The innermost open span's id, or ``None`` at the root."""
        return self._stack[-1].span_id if self._stack else None

    @property
    def current_name(self):
        """The innermost open span's name, or ``None`` at the root."""
        return self._stack[-1].name if self._stack else None

    def span(self, name, **attrs):
        """Open a catalogued span as a context manager."""
        self._check(name)
        span = Span(name, self._alloc(), self.current_id, 0.0, None,
                    self.pid, attrs)
        self._stack.append(span)
        return _OpenSpan(self, span)

    def _close(self, span):
        # Tolerate mis-nested exits (an exception unwinding through
        # several spans): pop everything above the closing span too.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        self._spans.append(span)

    def record(self, name, start, duration, **attrs):
        """Record an already-measured interval as a leaf span.

        For intervals that only become known after the fact — e.g. a
        pytrace session's lifetime, whose start predates ``finish()``.
        The span is attached under the innermost currently-open span.
        """
        self._check(name)
        self._spans.append(Span(name, self._alloc(), self.current_id,
                                start, duration, self.pid, attrs))

    def adopt(self, span_dicts, parent_id=None):
        """Fold a worker's serialized spans into this recording.

        Span ids are remapped into this tracer's id space (so adopting
        several workers cannot collide) and each worker root span is
        re-rooted under ``parent_id`` — the parent's ``batch.map`` span
        in the batch engine's case.  Process ids are kept verbatim:
        they are what gives each worker its own track in the Chrome
        trace export.  Returns the adopted :class:`Span` list.
        """
        adopted = [Span.from_dict(payload) for payload in span_dicts]
        # Two passes: spans arrive in completion order (children before
        # parents), so every id must be remapped before parent links are.
        remap = {span.span_id: self._alloc() for span in adopted}
        for span in adopted:
            span.span_id = remap[span.span_id]
            span.parent_id = remap.get(span.parent_id, parent_id)
            self._spans.append(span)
        return adopted

    @property
    def spans(self):
        """The finished spans recorded so far, in completion order."""
        return list(self._spans)

    def snapshot(self):
        """The finished spans as plain dicts (picklable, JSON-able)."""
        return [span.to_dict() for span in self._spans]


# ----------------------------------------------------------------------
# Sinks


def write_jsonl(spans, destination):
    """Write spans (dicts or :class:`Span`) as one JSON object per line.

    ``destination`` is a path or a writable text file object.
    """
    payloads = [span.to_dict() if isinstance(span, Span) else span
                for span in spans]
    if hasattr(destination, "write"):
        for payload in payloads:
            destination.write(json.dumps(payload, sort_keys=True) + "\n")
        return
    with open(destination, "w") as handle:
        write_jsonl(payloads, handle)


def chrome_trace_events(spans, parent_pid=None):
    """Spans rendered as Chrome ``trace_event`` complete ("X") events.

    Timestamps are microseconds relative to the earliest span, one
    ``pid`` per traced process (so Perfetto shows one track per worker),
    with ``process_name`` metadata distinguishing the parent from the
    workers.  Still-open spans (``duration is None``) are skipped.
    """
    payloads = [span.to_dict() if isinstance(span, Span) else span
                for span in spans]
    payloads = [p for p in payloads if p.get("duration") is not None]
    if parent_pid is None:
        parent_pid = os.getpid()
    epoch = min((p["start"] for p in payloads), default=0.0)
    events = []
    for pid in sorted({p["pid"] for p in payloads}):
        name = "repro parent" if pid == parent_pid else "worker %d" % pid
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "tid": pid, "args": {"name": name}})
    for payload in payloads:
        events.append({
            "ph": "X",
            "cat": "repro",
            "name": payload["name"],
            "ts": (payload["start"] - epoch) * 1e6,
            "dur": payload["duration"] * 1e6,
            "pid": payload["pid"],
            "tid": payload["pid"],
            "args": dict(payload.get("attrs") or {},
                         span_id=payload["span_id"],
                         parent_id=payload.get("parent_id")),
        })
    return events


def write_chrome_trace(spans, destination, parent_pid=None):
    """Write spans as a Chrome trace-event JSON file.

    The output is the ``{"traceEvents": [...]}`` object form, which
    both Perfetto and ``chrome://tracing`` load directly.
    """
    payload = {
        "displayTimeUnit": "ms",
        "traceEvents": chrome_trace_events(spans, parent_pid=parent_pid),
    }
    if hasattr(destination, "write"):
        json.dump(payload, destination, indent=1)
        destination.write("\n")
        return
    with open(destination, "w") as handle:
        write_chrome_trace(spans, handle, parent_pid=parent_pid)
