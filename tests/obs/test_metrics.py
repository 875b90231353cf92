"""Tests for the repro.obs metrics registry and its pipeline wiring."""

import json

import pytest

from repro import obs
from repro.core.locations import Location
from repro.core.measure import measure_graph
from repro.core.tracker import TraceBuilder
from repro.graph.flowgraph import FlowGraph
from repro.graph.maxflow import dinic_max_flow
from repro.lang import measure
from repro.obs.catalogue import CATALOGUE, snapshot_keys
from repro.obs.metrics import histogram_bucket
from repro.pytrace import Session


@pytest.fixture
def metrics():
    """A live registry installed process-wide, removed afterwards."""
    live = obs.enable()
    try:
        yield live
    finally:
        obs.disable()


def diamond():
    g = FlowGraph()
    a, b = g.add_node(), g.add_node()
    g.add_edge(g.source, a, 3)
    g.add_edge(g.source, b, 2)
    g.add_edge(a, g.sink, 2)
    g.add_edge(b, g.sink, 3)
    return g


class TestRegistry:
    def test_snapshot_covers_catalogue_zero_filled(self, metrics):
        snap = metrics.snapshot()
        assert list(snap) == snapshot_keys()
        # zero is 0 for scalars and {} (no buckets) for histograms
        assert not any(snap.values())

    def test_counter_and_gauge(self, metrics):
        metrics.incr("maxflow.solves")
        metrics.incr("maxflow.solves", 4)
        metrics.gauge("flow.bits", 17)
        metrics.gauge_max("pytrace.enclosure_depth_max", 3)
        metrics.gauge_max("pytrace.enclosure_depth_max", 1)
        snap = metrics.snapshot()
        assert snap["maxflow.solves"] == 5
        assert snap["flow.bits"] == 17
        assert snap["pytrace.enclosure_depth_max"] == 3

    def test_phase_timer(self, metrics):
        with metrics.phase("solve"):
            pass
        with metrics.phase("solve"):
            pass
        snap = metrics.snapshot()
        assert snap["phase.solve.calls"] == 2
        assert snap["phase.solve.seconds"] >= 0

    def test_uncatalogued_name_rejected(self, metrics):
        with pytest.raises(KeyError):
            metrics.incr("no.such.metric")
        with pytest.raises(KeyError):
            metrics.phase("no_such_phase")

    def test_kind_mismatch_rejected(self, metrics):
        with pytest.raises(ValueError):
            metrics.incr("flow.bits")          # a gauge
        with pytest.raises(ValueError):
            metrics.gauge("maxflow.solves", 1)  # a counter

    def test_null_metrics_accepts_everything(self):
        null = obs.NULL_METRICS
        assert not null.enabled
        null.incr("anything.goes", 7)
        null.gauge("whatever", 1)
        with null.phase("also-not-a-phase"):
            pass
        assert null.snapshot() == {}

    def test_enable_disable_swaps_default(self):
        assert obs.get_metrics() is obs.NULL_METRICS
        live = obs.enable()
        try:
            assert obs.get_metrics() is live
            assert obs.enabled()
        finally:
            obs.disable()
        assert obs.get_metrics() is obs.NULL_METRICS
        assert not obs.enabled()


class TestMergeAndFreeTimers:
    """The batch engine's registry-merge contract."""

    def test_add_seconds_accumulates(self, metrics):
        metrics.add_seconds("batch.worker_seconds", 0.25)
        metrics.add_seconds("batch.worker_seconds", 0.5)
        assert metrics.snapshot()["batch.worker_seconds"] == 0.75

    def test_add_seconds_rejects_non_timer(self, metrics):
        with pytest.raises(ValueError):
            metrics.add_seconds("batch.jobs", 1.0)

    def test_merge_counters_and_timers_add_gauges_max(self, metrics):
        metrics.incr("maxflow.solves", 2)
        metrics.gauge("flow.bits", 9)
        metrics.add_seconds("batch.worker_seconds", 1.0)
        worker = obs.Metrics()
        worker.incr("maxflow.solves", 3)
        worker.gauge("flow.bits", 4)
        worker.add_seconds("batch.worker_seconds", 0.5)
        metrics.merge(worker.snapshot())
        snap = metrics.snapshot()
        assert snap["maxflow.solves"] == 5
        assert snap["flow.bits"] == 9          # high-water mark kept
        assert snap["batch.worker_seconds"] == 1.5

    def test_merge_gauge_takes_larger_incoming(self, metrics):
        metrics.gauge("flow.bits", 3)
        metrics.merge({"flow.bits": 8})
        assert metrics.snapshot()["flow.bits"] == 8

    def test_merge_rejects_uncatalogued_key(self, metrics):
        with pytest.raises(KeyError):
            metrics.merge({"not.a.metric": 1})

    def test_merge_snapshot_helper(self):
        live = obs.enable()
        try:
            obs.merge_snapshot({"maxflow.solves": 4})
            assert live.snapshot()["maxflow.solves"] == 4
        finally:
            obs.disable()
        obs.merge_snapshot({"maxflow.solves": 1})  # null sink: no-op
        assert obs.get_metrics().snapshot() == {}


class TestSolverWiring:
    def test_dinic_counters(self, metrics):
        value, _ = dinic_max_flow(diamond())
        snap = metrics.snapshot()
        assert value == 4
        assert snap["maxflow.solves"] == 1
        assert snap["maxflow.dinic.bfs_phases"] >= 1
        assert snap["maxflow.dinic.augmenting_paths"] >= 2
        assert snap["phase.solve.calls"] == 1

    def test_solver_results_unchanged_when_disabled(self):
        assert dinic_max_flow(diamond())[0] == 4


class TestPipelineWiring:
    SOURCE = ("fn main() { var x: u8 = secret_u8();"
              " if (x > 10) { output(1); } else { output(0); } }")

    def test_lang_measure_populates_report_metrics(self, metrics):
        result = measure(self.SOURCE, secret_input=b"\x20")
        snap = result.report.metrics
        assert snap is not None
        assert list(snap) == snapshot_keys()
        assert snap["trace.operations"] >= 1
        assert snap["trace.implicit_flows"] >= 1
        assert snap["trace.outputs"] == 1
        assert snap["trace.secret_input_bits"] == 8
        assert snap["collapse.runs"] == 1
        assert snap["collapse.nodes_after"] <= snap["collapse.nodes_before"]
        assert snap["flow.bits"] == result.bits == 1
        assert snap["mincut.edges"] >= 1
        assert snap["phase.trace.calls"] == 1
        assert snap["phase.measure.calls"] == 1
        assert snap["phase.collapse.calls"] == 1
        assert snap["phase.mincut.calls"] == 1

    def test_report_metrics_none_when_disabled(self):
        result = measure(self.SOURCE, secret_input=b"\x20")
        assert result.report.metrics is None

    def test_pytrace_session_metrics(self, metrics):
        session = Session()
        secret = session.secret_int(0xAB, width=8)
        masked = (secret ^ 0x55) & 0x0F
        with session.enclose() as region:
            if secret > 100:
                total = 1
            else:
                total = 0
        total = region.wrap(total, width=1)
        session.output(masked, total)
        report = session.measure()
        snap = metrics.snapshot()
        assert snap["pytrace.shadow_ops"] >= 3
        assert snap["pytrace.implicit_events"] >= 1
        assert snap["pytrace.enclosure_depth_max"] == 1
        assert report.metrics is snap or report.metrics == snap

    def test_counters_accumulate_across_measurements(self, metrics):
        measure(self.SOURCE, secret_input=b"\x20")
        measure(self.SOURCE, secret_input=b"\x05")
        snap = metrics.snapshot()
        assert snap["phase.measure.calls"] == 2
        assert snap["trace.outputs"] == 2


class TestHistograms:
    def test_bucket_edges(self):
        assert histogram_bucket(1) == 1        # [1, 2)
        assert histogram_bucket(1.5) == 1
        assert histogram_bucket(2) == 2        # [2, 4)
        assert histogram_bucket(0.5) == 0      # [0.5, 1)
        assert histogram_bucket(0) == -32      # non-positive: lowest bucket
        assert histogram_bucket(-7) == -32
        assert histogram_bucket(2 ** 40) == 32       # clamped high
        assert histogram_bucket(2.0 ** -40) == -32   # clamped low

    def test_observe_counts_buckets(self, metrics):
        for value in (1, 1.5, 3, 0.001):
            metrics.observe("batch.job_seconds", value)
        buckets = metrics.snapshot()["batch.job_seconds"]
        assert buckets == {1: 2, 2: 1, histogram_bucket(0.001): 1}

    def test_observe_rejects_non_histogram(self, metrics):
        with pytest.raises(ValueError):
            metrics.observe("batch.jobs", 1)

    def test_snapshot_isolated_from_later_observations(self, metrics):
        metrics.observe("batch.job_seconds", 1)
        frozen = metrics.snapshot()["batch.job_seconds"]
        metrics.observe("batch.job_seconds", 1)
        assert frozen == {1: 1}
        assert metrics.snapshot()["batch.job_seconds"] == {1: 2}

    def test_merge_adds_bucketwise(self, metrics):
        metrics.observe("batch.job_seconds", 1)
        worker = obs.Metrics()
        worker.observe("batch.job_seconds", 1)
        worker.observe("batch.job_seconds", 3)
        metrics.merge(worker.snapshot())
        assert metrics.snapshot()["batch.job_seconds"] == {1: 2, 2: 1}

    def test_merge_accepts_json_string_bucket_keys(self, metrics):
        metrics.merge({"batch.job_seconds": {"1": 2, "-32": 1}})
        metrics.merge(json.loads(json.dumps(
            {"batch.job_seconds": {1: 1}})))
        assert metrics.snapshot()["batch.job_seconds"] == {1: 3, -32: 1}

    def test_dinic_records_path_lengths(self, metrics):
        dinic_max_flow(diamond())
        buckets = metrics.snapshot()["maxflow.dinic.path_length"]
        paths = metrics.snapshot()["maxflow.dinic.augmenting_paths"]
        assert sum(buckets.values()) == paths >= 2
        assert set(buckets) == {2}  # every diamond path is 2 edges

    def test_to_table_renders_histogram(self, metrics):
        metrics.observe("batch.job_seconds", 1)
        metrics.observe("batch.job_seconds", 3)
        table = obs.to_table(metrics.snapshot())
        line = next(l for l in table.splitlines()
                    if l.startswith("batch.job_seconds"))
        assert "n=2" in line
        assert "2^1:1" in line and "2^2:1" in line


class TestMergeSnapshotEdgeCases:
    def test_empty_snapshot_is_noop(self, metrics):
        before = metrics.snapshot()
        obs.merge_snapshot({})
        assert metrics.snapshot() == before

    def test_uncatalogued_key_names_the_key(self, metrics):
        with pytest.raises(KeyError, match="bogus.key"):
            obs.merge_snapshot({"bogus.key": 1})

    def test_per_kind_semantics(self, metrics):
        metrics.incr("maxflow.solves", 2)          # counter: adds
        metrics.gauge("flow.bits", 9)              # gauge: keeps max
        metrics.add_seconds("batch.worker_seconds", 1.0)  # timer: adds
        obs.merge_snapshot({"maxflow.solves": 3, "flow.bits": 4,
                            "batch.worker_seconds": 0.5})
        snap = metrics.snapshot()
        assert snap["maxflow.solves"] == 5
        assert snap["flow.bits"] == 9
        assert snap["batch.worker_seconds"] == 1.5


class TestTraceCounterDeltaPublishing:
    """Regression: trace.* counters are delta-published, never recounted."""

    def events(self, builder):
        loc = Location("t.fl", 1)
        value = builder.secret_value(loc, width=8)
        builder.output(loc, [value])

    def test_publish_twice_counts_once(self, metrics):
        builder = TraceBuilder()
        self.events(builder)
        builder.publish_trace_counters(metrics)
        builder.publish_trace_counters(metrics)
        snap = metrics.snapshot()
        assert snap["trace.secret_input_bits"] == 8
        assert snap["trace.outputs"] == 1

    def test_publish_after_more_events_adds_only_delta(self, metrics):
        builder = TraceBuilder()
        self.events(builder)
        builder.publish_trace_counters(metrics)
        self.events(builder)
        builder.finish()  # publishes again (the second run's delta)
        snap = metrics.snapshot()
        assert snap["trace.secret_input_bits"] == 16
        assert snap["trace.outputs"] == 2

    def test_repeated_measurement_of_one_graph_counts_once(self, metrics):
        builder = TraceBuilder()
        self.events(builder)
        graph = builder.finish()
        measure_graph(graph)
        measure_graph(graph)
        snap = metrics.snapshot()
        assert snap["trace.outputs"] == 1
        assert snap["trace.secret_input_bits"] == 8
        assert snap["phase.measure.calls"] == 2


class TestRendering:
    def test_to_json_round_trips(self, metrics):
        metrics.incr("maxflow.solves", 3)
        parsed = json.loads(obs.to_json(metrics.snapshot()))
        assert parsed["maxflow.solves"] == 3
        assert set(parsed) == set(snapshot_keys())

    def test_to_table_lists_every_metric(self, metrics):
        table = obs.to_table(metrics.snapshot())
        lines = table.splitlines()
        assert len(lines) == len(CATALOGUE)
        for name in CATALOGUE:
            assert any(line.startswith(name) for line in lines)

    def test_to_table_empty_snapshot(self):
        assert "no metrics" in obs.to_table({})
