"""Observability for the trace -> collapse -> max-flow pipeline.

The paper's scalability argument (Section 5.3: traces of millions of
operations collapsing to thousands of nodes) is an empirical claim, and
every optimization of the pipeline needs to know where the time and the
graph volume actually go.  This package is the measurement substrate:
a zero-dependency registry of counters, gauges, timers, and histograms
(:mod:`repro.obs.metrics`) plus a hierarchical span tracer
(:mod:`repro.obs.trace`), both behind *documented name contracts*
(``docs/observability.md``; see :mod:`repro.obs.catalogue` and
:data:`repro.obs.trace.SPAN_CATALOGUE`).

Usage::

    from repro import obs

    obs.enable()                        # install a live registry
    report = measure_graph(graph)       # pipeline records as it runs
    print(obs.to_table(obs.get_metrics().snapshot()))
    obs.disable()                       # back to the no-op sink

By default the process-wide instance is :data:`NULL_METRICS`, a no-op
sink, so instrumented code pays only an attribute lookup and an empty
method call when observability is off (measured at well under 2% on the
Figure 3 compressor benchmark; see ``docs/observability.md``).

The registry is process-wide and single-threaded by default; enable it
around one measurement at a time.  Background consumers (the telemetry
exporter's flusher thread) call
:meth:`~repro.obs.metrics.Metrics.enable_thread_safety` on whatever
registry is live, which installs a lock guarding every mutation and
snapshot from then on.

Three further layers ride on the same enable/disable pattern: a
hierarchical span tracer (:mod:`repro.obs.trace`), a structured event
log (:mod:`repro.obs.log`), and a continuous telemetry exporter
(:mod:`repro.obs.export`) that periodically writes registry snapshots,
resource samples (:mod:`repro.obs.resources`), and drained events to a
``telemetry-v1`` directory as JSONL and OpenMetrics text.
"""

from __future__ import annotations

from .._lazy import lazy_exports
from .catalogue import CATALOGUE, PHASES, MetricSpec, snapshot_keys
from .log import (EVENT_CATALOGUE, RESERVED_FIELDS, EventLog, EventSpec,
                  NullEventLog, event_names)
from .metrics import Metrics, NullMetrics, histogram_bucket
from .trace import (SPAN_CATALOGUE, NullTracer, Span, SpanSpec, Tracer,
                    chrome_trace_events, span_names, write_chrome_trace,
                    write_jsonl)

__getattr__, __dir__ = lazy_exports(__name__, {
    ".export": ("FORMAT", "Ledger", "TelemetryExporter", "check_dir",
                "lint_openmetrics", "parse_openmetrics", "read_latest",
                "render_openmetrics"),
    ".render": ("to_json", "to_table"),
    ".resources": ("SAMPLE_FIELDS", "live_graph_sizes", "sample",
                   "track_builder"),
})

#: The shared no-op sink (the default process-wide instance).
NULL_METRICS = NullMetrics()

_default = NULL_METRICS

#: The shared no-op tracer (the default process-wide instance).
NULL_TRACER = NullTracer()

_tracer = NULL_TRACER

#: The shared no-op event log (the default process-wide instance).
NULL_EVENT_LOG = NullEventLog()

_event_log = NULL_EVENT_LOG

_exporter = None


def get_metrics():
    """The process-wide metrics instance (live or the null sink)."""
    return _default


def set_metrics(metrics):
    """Install ``metrics`` as the process-wide instance; returns the old one."""
    global _default
    previous = _default
    _default = metrics
    return previous


def enable():
    """Install (and return) a fresh live :class:`Metrics` registry."""
    metrics = Metrics()
    set_metrics(metrics)
    return metrics


def disable():
    """Restore the no-op sink; returns the previously installed instance."""
    return set_metrics(NULL_METRICS)


def enabled():
    """Whether the process-wide instance records anything."""
    return _default.enabled


def merge_snapshot(snapshot):
    """Fold a worker's snapshot into the process-wide registry.

    No-op when observability is disabled; see
    :meth:`~repro.obs.metrics.Metrics.merge` for the fold semantics
    (counters/timers add, gauges keep the maximum, histograms add
    bucket-wise).  Returns the process-wide instance.
    """
    _default.merge(snapshot)
    return _default


def get_tracer():
    """The process-wide tracer instance (live or the null sink)."""
    return _tracer


def set_tracer(tracer):
    """Install ``tracer`` as the process-wide instance; returns the old one."""
    global _tracer
    previous = _tracer
    _tracer = tracer
    return previous


def enable_tracing():
    """Install (and return) a fresh live :class:`Tracer`."""
    tracer = Tracer()
    set_tracer(tracer)
    return tracer


def disable_tracing():
    """Restore the no-op tracer; returns the previously installed one."""
    return set_tracer(NULL_TRACER)


def tracing_enabled():
    """Whether the process-wide tracer records anything."""
    return _tracer.enabled


def get_event_log():
    """The process-wide event log instance (live or the null sink)."""
    return _event_log


def set_event_log(event_log):
    """Install ``event_log`` as the process-wide instance; returns the old one."""
    global _event_log
    previous = _event_log
    _event_log = event_log
    return previous


def enable_events(capacity=4096):
    """Install (and return) a fresh live :class:`EventLog`."""
    event_log = EventLog(capacity=capacity)
    set_event_log(event_log)
    return event_log


def disable_events():
    """Restore the no-op event log; returns the previously installed one."""
    return set_event_log(NULL_EVENT_LOG)


def events_enabled():
    """Whether the process-wide event log records anything."""
    return _event_log.enabled


def get_exporter():
    """The process-wide telemetry exporter, or ``None``."""
    return _exporter


def set_exporter(exporter):
    """Install ``exporter`` (may be ``None``); returns the previous one.

    Unlike the metrics/tracer/event-log accessors there is no null
    object: producers (the batch engine shipping worker resource
    samples home) check for ``None``, since telemetry export is the
    exception, not the default.
    """
    global _exporter
    previous = _exporter
    _exporter = exporter
    return previous


__all__ = [
    "CATALOGUE", "PHASES", "MetricSpec", "snapshot_keys",
    "Metrics", "NullMetrics", "NULL_METRICS", "histogram_bucket",
    "get_metrics", "set_metrics", "enable", "disable", "enabled",
    "merge_snapshot",
    "to_json", "to_table",
    "SPAN_CATALOGUE", "SpanSpec", "Span", "Tracer", "NullTracer",
    "NULL_TRACER", "span_names",
    "get_tracer", "set_tracer", "enable_tracing", "disable_tracing",
    "tracing_enabled",
    "write_jsonl", "write_chrome_trace", "chrome_trace_events",
    "EVENT_CATALOGUE", "RESERVED_FIELDS", "EventSpec", "EventLog",
    "NullEventLog", "NULL_EVENT_LOG", "event_names",
    "get_event_log", "set_event_log", "enable_events", "disable_events",
    "events_enabled",
    "SAMPLE_FIELDS", "sample", "track_builder", "live_graph_sizes",
    "FORMAT", "Ledger", "TelemetryExporter", "render_openmetrics",
    "parse_openmetrics", "lint_openmetrics", "read_latest", "check_dir",
    "get_exporter", "set_exporter",
]
