"""Republish-counter regression: snapshots never double-count.

Early versions of the pipeline re-published a builder's ``trace.*``
event counters on every measurement, so taking two reports of one
trace doubled ``trace.operations`` (the "republish wart" once
documented in ``docs/observability.md``).  The fix is the delta ledger
in ``TraceBuilder.publish_trace_counters``: only growth since the last
publish is added.  These tests pin that behaviour down on both
backends -- reference and fast -- so the wart cannot quietly return
with a new code path.
"""

import pytest

from repro import obs
from repro.core.locations import Location
from repro.core.tracker import CollapsingTraceBuilder, TraceBuilder
from repro.pytrace import Session
from repro.shadow import BACKENDS

TRACE_KEYS = ("trace.operations", "trace.implicit_flows", "trace.outputs",
              "trace.secret_input_bits", "trace.tainted_output_bits")


def drive(builder):
    loc = Location("unit", 1, "x")
    provs = builder.secret_values(loc, 8, 4)
    out = builder.operation(loc, 0xFF, [provs[0], provs[1]])
    builder.output(loc, [out, provs[2]])
    return builder


@pytest.mark.parametrize("factory", [TraceBuilder, CollapsingTraceBuilder])
class TestPublishLedger:
    def test_republish_is_idempotent(self, factory):
        builder = drive(factory())
        obs.enable()
        try:
            metrics = obs.get_metrics()
            builder.publish_trace_counters(metrics)
            once = {k: metrics.snapshot()[k] for k in TRACE_KEYS}
            # The wart: downstream code publishing again per report.
            builder.publish_trace_counters(metrics)
            builder.publish_trace_counters(metrics)
            again = {k: metrics.snapshot()[k] for k in TRACE_KEYS}
        finally:
            obs.disable()
        assert once == again
        assert once["trace.operations"] > 0

    def test_growth_after_publish_is_counted_once(self, factory):
        builder = drive(factory())
        obs.enable()
        try:
            metrics = obs.get_metrics()
            builder.publish_trace_counters(metrics)
            first = metrics.snapshot()["trace.outputs"]
            loc = Location("unit", 2, "y")
            builder.output(loc, [])
            builder.publish_trace_counters(metrics)
            builder.publish_trace_counters(metrics)
            second = metrics.snapshot()["trace.outputs"]
        finally:
            obs.disable()
        assert second == first + 1

    def test_finish_after_publish_adds_only_the_delta(self, factory):
        builder = drive(factory())
        obs.enable()
        try:
            metrics = obs.get_metrics()
            builder.publish_trace_counters(metrics)
            mid = {k: metrics.snapshot()[k] for k in TRACE_KEYS}
            # finish() publishes too (the exit-observable edge adds no
            # stats), so totals must not change.
            builder.finish()
            end = {k: metrics.snapshot()[k] for k in TRACE_KEYS}
        finally:
            obs.disable()
        assert end == mid


class TestSessionMeasureOnce:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_measure_publishes_each_event_once(self, backend):
        obs.enable()
        try:
            session = Session(backend=backend)
            data = session.secret_bytes(b"\x81\x07\x3c", name="k")
            acc = session.widen(0, 32)
            for x in data:
                acc = acc + x
            session.output(acc)
            session.measure()
            snap = obs.get_metrics().snapshot()
        finally:
            obs.disable()
        # One secret_bytes call of 3 bytes: exactly 24 input bits, no
        # matter how many internal publish points the measurement
        # pipeline crosses on this backend.
        assert snap["trace.secret_input_bits"] == 24
        assert snap["trace.outputs"] == session.tracker.stats["outputs"]
