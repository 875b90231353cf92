"""Structured JSON event logging, correlated with the active span.

The metrics registry answers *how much* and the tracer answers *when*;
this module answers *what happened*: discrete, irregular occurrences —
a retry, a quarantine, a dedup hit, a flush error — that are
invisible as counter totals (the count survives, the circumstances do
not) and too rare to deserve their own spans.  Each record is a plain
JSON-able dict carrying a wall-clock timestamp, the recording process
id, the event name, the id and name of the span that was open when the
event fired (``None`` when tracing is off), and the event's own typed
fields.

Like metric and span names, **event names are a closed catalogue**
(:data:`EVENT_CATALOGUE`, the ``events-v1`` schema documented in
``docs/observability.md`` with its own drift test): a live
:class:`EventLog` rejects anything else, so the event stream cannot
drift away from the documented contract.

The process-wide instance defaults to :data:`repro.obs.NULL_EVENT_LOG`,
a no-op sink, so instrumented code pays only an attribute lookup and an
empty method call per *event site* when logging is off.  The live log
is a bounded ring (oldest records dropped, with a counter) drained by
the telemetry exporter; batch workers run their own fresh log and ship
drained records home for the parent to :meth:`~EventLog.adopt`,
exactly like metric snapshots and span dicts.
"""

from __future__ import annotations

import os
import threading
import time

#: Record keys reserved by the ``events-v1`` schema; event-specific
#: fields may not collide with them.
RESERVED_FIELDS = ("ts", "pid", "event", "span_id", "span")


class EventSpec:
    """One catalogued event name: its stability and meaning."""

    __slots__ = ("name", "stability", "description")

    def __init__(self, name, stability, description):
        self.name = name
        self.stability = stability
        self.description = description

    def __repr__(self):
        return "EventSpec(%r, %s)" % (self.name, self.stability)


def _event_specs():
    return [
        ("batch.retry", "experimental",
         "a transiently failed job attempt was re-queued for another try"),
        ("batch.timeout", "experimental",
         "a job attempt exceeded the per-job wall-clock budget"),
        ("batch.quarantine", "experimental",
         "a job exhausted its transient retry budget and was dropped "
         "from rotation"),
        ("batch.failure", "experimental",
         "a permanently failed job was collected as a JobFailure record"),
        ("batch.pool_restart", "experimental",
         "the worker pool was torn down and resurrected"),
        ("store.dedup", "experimental",
         "a store put's digest was already present, so no blob was "
         "written"),
        ("store.recovered", "experimental",
         "opening a shard store repaired or dropped corrupt manifest "
         "lines instead of raising"),
        ("combine.kraft_update", "experimental",
         "the incremental Kraft accountant recorded an anytime-bound "
         "trail point"),
        ("export.flush_error", "experimental",
         "one telemetry flush failed; the exporter keeps running"),
        ("queue.submit", "experimental",
         "the measurement service journaled one accepted job "
         "(durable before the 202 response)"),
        ("queue.ack", "experimental",
         "one job reached a terminal state and its acknowledge record "
         "was journaled"),
        ("queue.replay", "experimental",
         "service start re-enqueued an unacknowledged job from the "
         "queue journal"),
        ("queue.reject", "experimental",
         "admission control refused a job submission (the HTTP 429/503 "
         "path)"),
        ("queue.cancel", "experimental",
         "a cancel request was journaled for a queued or running job"),
    ]


#: name -> :class:`EventSpec`; insertion order is the canonical order
#: of the docs catalogue table.
EVENT_CATALOGUE = {}
for _name, _stability, _description in _event_specs():
    EVENT_CATALOGUE[_name] = EventSpec(_name, _stability, _description)
del _name, _stability, _description


def event_names():
    """All catalogued event names, in canonical order."""
    return list(EVENT_CATALOGUE)


class NullEventLog:
    """No-op sink with the :class:`EventLog` interface.

    Accepts any name without validation; every operation is a constant
    handful of bytecodes, so event sites can call unconditionally.
    """

    __slots__ = ()
    enabled = False
    dropped = 0

    def event(self, name, **fields):
        pass

    def adopt(self, records):
        pass

    def snapshot(self):
        """An empty list: a disabled log observes nothing."""
        return []

    def drain(self):
        return []


class EventLog:
    """A live bounded event recorder, validated against the catalogue.

    Thread-safe by construction (a single lock guards the ring): the
    telemetry exporter's flusher thread drains records while
    instrumented code keeps appending.  ``capacity`` bounds memory for
    long-running processes; when the ring is full the *oldest* record
    is dropped and :attr:`dropped` counts it, so a stalled exporter
    degrades to losing history rather than growing without bound.
    """

    __slots__ = ("capacity", "dropped", "_records", "_lock")
    enabled = True

    def __init__(self, capacity=4096):
        capacity = int(capacity)
        if capacity < 1:
            raise ValueError("capacity must be >= 1, got %d" % capacity)
        self.capacity = capacity
        self.dropped = 0
        self._records = []
        self._lock = threading.Lock()

    def event(self, name, **fields):
        """Record one catalogued event with the given typed fields.

        The record automatically carries ``ts`` (epoch seconds),
        ``pid``, ``event`` (the name), and ``span_id``/``span`` — the
        id and name of the innermost open span of the process-wide
        tracer, or ``None`` when tracing is off.  Returns the record.
        """
        if name not in EVENT_CATALOGUE:
            raise KeyError("event %r is not in the catalogue; add it to "
                           "repro/obs/log.py and docs/observability.md"
                           % name)
        for reserved in RESERVED_FIELDS:
            if reserved in fields:
                raise ValueError("event field %r collides with a "
                                 "reserved events-v1 key" % reserved)
        from repro import obs
        tracer = obs.get_tracer()
        record = {"ts": time.time(), "pid": os.getpid(), "event": name,
                  "span_id": tracer.current_id,
                  "span": tracer.current_name}
        record.update(fields)
        self._append(record)
        return record

    def _append(self, record):
        with self._lock:
            if len(self._records) >= self.capacity:
                overflow = len(self._records) - self.capacity + 1
                del self._records[:overflow]
                self.dropped += overflow
            self._records.append(record)

    def adopt(self, records):
        """Fold a worker's drained records into this log, verbatim.

        Process ids and span ids are kept as the worker recorded them
        (worker span ids live in the worker tracer's id space; the
        ``pid`` disambiguates).  Every record's name must be catalogued
        — adopting an undocumented event raises ``KeyError``, keeping
        the contract intact across process boundaries.
        """
        for record in records:
            name = record.get("event")
            if name not in EVENT_CATALOGUE:
                raise KeyError("adopted record's event %r is not in the "
                               "catalogue; refusing to adopt "
                               "undocumented events" % (name,))
            self._append(record)

    def snapshot(self):
        """The buffered records, oldest first, without consuming them."""
        with self._lock:
            return list(self._records)

    def drain(self):
        """Remove and return the buffered records, oldest first."""
        with self._lock:
            records = self._records
            self._records = []
        return records
