"""The resource sampler: field shape, gauges, live-graph tracking.

A sample is one flat JSON-ready dict with exactly ``SAMPLE_FIELDS``;
passing a registry publishes the non-identity fields as ``resource.*``
gauges.  Live online collapsers register weakly, so the graph-size
gauges go back to zero once a builder is garbage-collected.
"""

import gc
import os

from repro import obs
from repro.core.tracker import CollapsingTraceBuilder
from repro.obs import resources
from repro.obs.resources import SAMPLE_FIELDS, live_graph_sizes, sample
from repro.pytrace import Session


class TestSampleShape:
    def test_exactly_the_documented_fields(self):
        record = sample()
        assert tuple(record) == SAMPLE_FIELDS

    def test_identity_and_plausibility(self):
        record = sample()
        assert record["pid"] == os.getpid()
        assert record["ts"] > 0
        assert record["rss_bytes"] > 0
        assert record["cpu_seconds"] >= 0
        assert record["open_fds"] > 0
        assert record["gc_collections"] >= 0

    def test_cpu_seconds_accumulate(self):
        before = sample()["cpu_seconds"]
        total = sum(i * i for i in range(200000))
        assert total > 0
        assert sample()["cpu_seconds"] >= before


class TestGaugePublication:
    def test_sample_publishes_resource_gauges(self):
        metrics = obs.enable()
        try:
            record = sample(metrics)
            snap = metrics.snapshot()
        finally:
            obs.disable()
        for field in SAMPLE_FIELDS[2:]:
            assert snap["resource." + field] == record[field]

    def test_sample_without_metrics_publishes_nothing(self):
        record = sample()
        assert "resource.rss_bytes" not in record


class TestLiveGraphTracking:
    def test_live_builder_is_counted(self):
        builder = CollapsingTraceBuilder()
        session = Session(tracker=builder)
        secret = session.secret_int(9, width=8)
        session.output(secret & 7)
        nodes, edges = live_graph_sizes()
        assert nodes >= builder.live_nodes > 0
        assert edges >= builder.live_edges > 0
        record = sample()
        assert record["graph_nodes_live"] == nodes
        assert record["graph_edges_live"] == edges

    def test_registration_is_weak(self):
        # Collect first: a builder that an earlier test left in an
        # unreachable cycle still counts until the collector runs, and
        # it might run mid-test and shrink the count under the builder
        # made here.
        gc.collect()
        before_nodes, _ = live_graph_sizes()
        builder = CollapsingTraceBuilder()
        session = Session(tracker=builder)
        secret = session.secret_int(5, width=8)
        session.output(secret)
        during_nodes, _ = live_graph_sizes()
        assert during_nodes > before_nodes
        del session, secret, builder
        gc.collect()
        after_nodes, _ = live_graph_sizes()
        assert after_nodes <= before_nodes

    def test_tracked_registry_survives_dead_entries(self):
        builder = CollapsingTraceBuilder()
        resources.track_builder(builder)
        resources.track_builder(builder)  # idempotent-enough: a set
        del builder
        gc.collect()
        nodes, edges = live_graph_sizes()
        assert nodes >= 0 and edges >= 0
