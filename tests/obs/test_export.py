"""The continuous exporter: rendering, the ledger, and the directory.

Three layers under test: the OpenMetrics renderer/parser/linter pair
(the checker reads what the renderer wrote, so the pair must
round-trip), the publish ledger (counters stay monotone across
registry resets and disabled windows), and the exporter's
``telemetry-v1`` directory contract — including error containment:
a failing flush must never propagate into the measured program.
"""

import json
import os
import threading

import pytest

from repro import obs
from repro.obs.export import (_Ledger, TelemetryExporter, check_dir,
                              lint_openmetrics, parse_openmetrics,
                              read_latest, render_openmetrics)
from repro.obs.resources import SAMPLE_FIELDS


def _live_snapshot():
    """A registry snapshot with a counter, gauge, timer, histogram set."""
    metrics = obs.enable()
    try:
        metrics.incr("batch.jobs", 7)
        metrics.gauge("collapse.nodes_after", 42)
        metrics.add_seconds("phase.solve.seconds", 1.5)
        metrics.observe("batch.job_seconds", 0.3)
        metrics.observe("batch.job_seconds", 0.4)
        metrics.observe("batch.job_seconds", 3.0)
        return metrics.snapshot()
    finally:
        obs.disable()


class TestRenderParseRoundTrip:
    def test_round_trip_values(self):
        snapshot = _live_snapshot()
        text = render_openmetrics(snapshot)
        families = parse_openmetrics(text)
        jobs = families["repro_batch_jobs"]
        assert jobs.type == "counter"
        assert jobs.samples == [("repro_batch_jobs_total", {}, 7)]
        nodes = families["repro_collapse_nodes_after"]
        assert nodes.type == "gauge"
        assert nodes.samples == [("repro_collapse_nodes_after", {}, 42)]
        solve = families["repro_phase_solve_seconds"]
        assert solve.samples == [("repro_phase_solve_seconds_total",
                                  {}, 1.5)]

    def test_histogram_buckets_cumulative(self):
        snapshot = _live_snapshot()
        families = parse_openmetrics(render_openmetrics(snapshot))
        hist = families["repro_batch_job_seconds"]
        assert hist.type == "histogram"
        buckets = [(labels["le"], value) for name, labels, value
                   in hist.samples
                   if name == "repro_batch_job_seconds_bucket"]
        assert buckets[-1][0] == "+Inf"
        assert buckets[-1][1] == 3
        values = [value for _le, value in buckets]
        assert values == sorted(values)
        counts = [value for name, _labels, value in hist.samples
                  if name == "repro_batch_job_seconds_count"]
        assert counts == [3]

    def test_rendered_text_lints_clean(self):
        assert lint_openmetrics(render_openmetrics(_live_snapshot())) == []

    def test_resource_samples_get_worker_labels(self):
        snapshot = _live_snapshot()
        samples = {"parent": {"rss_bytes": 100}, "12345": {"rss_bytes": 200}}
        text = render_openmetrics(snapshot, resource_samples=samples)
        family = parse_openmetrics(text)["repro_resource_rss_bytes"]
        by_worker = {labels["worker"]: value
                     for _name, labels, value in family.samples}
        assert by_worker == {"parent": 100, "12345": 200}

    def test_label_escaping_round_trips(self):
        snapshot = _live_snapshot()
        tricky = 'a"b\\c\nd'
        text = render_openmetrics(
            snapshot, resource_samples={tricky: {"rss_bytes": 1}})
        family = parse_openmetrics(text)["repro_resource_rss_bytes"]
        assert family.samples[0][1]["worker"] == tricky


class TestLintCatchesViolations:
    def test_missing_eof(self):
        text = render_openmetrics(_live_snapshot())
        broken = text.replace("# EOF\n", "")
        assert any("EOF" in p or "unparseable" in p
                   for p in lint_openmetrics(broken))

    def test_counter_without_total_suffix(self):
        text = ("# HELP repro_batch_jobs j\n"
                "# TYPE repro_batch_jobs counter\n"
                "repro_batch_jobs 7\n# EOF\n")
        assert any("_total" in p for p in lint_openmetrics(text))

    def test_family_without_type(self):
        text = "repro_rogue_sample 1\n# EOF\n"
        assert any("TYPE" in p for p in lint_openmetrics(text))

    def test_histogram_missing_inf_bucket(self):
        text = ("# HELP repro_h h\n# TYPE repro_h histogram\n"
                'repro_h_bucket{le="1.0"} 2\nrepro_h_count 2\n# EOF\n')
        assert any("+Inf" in p for p in lint_openmetrics(text))

    def test_histogram_count_mismatch(self):
        text = ("# HELP repro_h h\n# TYPE repro_h histogram\n"
                'repro_h_bucket{le="+Inf"} 2\nrepro_h_count 5\n# EOF\n')
        assert any("disagrees" in p for p in lint_openmetrics(text))


class TestLedger:
    def test_counters_monotone_across_reset(self):
        ledger = _Ledger()
        first = ledger.publish({"batch.jobs": 10})
        assert first["batch.jobs"] == 10
        # Registry reset: raw drops to 4 — published keeps climbing.
        second = ledger.publish({"batch.jobs": 4})
        assert second["batch.jobs"] == 14
        third = ledger.publish({"batch.jobs": 6})
        assert third["batch.jobs"] == 16

    def test_disabled_window_carries_totals_forward(self):
        ledger = _Ledger()
        ledger.publish({"batch.jobs": 10})
        carried = ledger.publish({})
        assert carried["batch.jobs"] == 10
        # Re-enabled registry starts from zero: everything is new delta.
        resumed = ledger.publish({"batch.jobs": 3})
        assert resumed["batch.jobs"] == 13

    def test_gauges_pass_through(self):
        ledger = _Ledger()
        assert ledger.publish(
            {"collapse.nodes_after": 50})["collapse.nodes_after"] == 50
        assert ledger.publish(
            {"collapse.nodes_after": 8})["collapse.nodes_after"] == 8

    def test_remembered_gauges_survive_disabled_window(self):
        ledger = _Ledger()
        published = ledger.publish({"collapse.nodes_after": 50})
        ledger.remember_gauges(published)
        carried = ledger.publish({})
        assert carried["collapse.nodes_after"] == 50

    def test_histogram_buckets_monotone_across_reset(self):
        ledger = _Ledger()
        first = ledger.publish({"batch.job_seconds": {0: 2, 3: 1}})
        assert first["batch.job_seconds"] == {0: 2, 3: 1}
        second = ledger.publish({"batch.job_seconds": {0: 1}})
        assert second["batch.job_seconds"] == {0: 3, 3: 1}


class TestExporterDirectory:
    def _run_once(self, directory):
        metrics = obs.enable()
        obs.enable_events()
        exporter = TelemetryExporter(directory, interval=60.0)
        obs.set_exporter(exporter)
        try:
            exporter.start()
            metrics.incr("batch.jobs", 3)
            obs.get_event_log().event("store.dedup", digest="aa")
        finally:
            obs.set_exporter(None)
            error = exporter.stop()
            obs.disable_events()
            obs.disable()
        assert error is None
        return exporter

    def test_layout_and_check(self, tmp_path):
        directory = str(tmp_path / "telemetry")
        exporter = self._run_once(directory)
        assert exporter.flushes >= 1
        with open(os.path.join(directory, "format")) as handle:
            assert handle.read().strip() == "telemetry-v1"
        for name in ("metrics.jsonl", "metrics.prom", "resources.jsonl",
                     "events.jsonl", "workers"):
            assert os.path.exists(os.path.join(directory, name)), name
        assert check_dir(directory) == []

    def test_metrics_jsonl_and_latest(self, tmp_path):
        directory = str(tmp_path / "telemetry")
        self._run_once(directory)
        with open(os.path.join(directory, "metrics.jsonl")) as handle:
            records = [json.loads(line) for line in handle]
        assert records
        assert records[-1]["metrics"]["batch.jobs"] == 3
        assert [r["seq"] for r in records] == sorted(
            {r["seq"] for r in records})
        doc = read_latest(directory)
        assert doc["seq"] == records[-1]["seq"]
        assert doc["metrics"]["batch.jobs"] == 3

    def test_events_and_resources_written(self, tmp_path):
        directory = str(tmp_path / "telemetry")
        self._run_once(directory)
        with open(os.path.join(directory, "events.jsonl")) as handle:
            events = [json.loads(line) for line in handle]
        assert any(e["event"] == "store.dedup" for e in events)
        for event in events:
            assert all(field in event for field in
                       ("ts", "pid", "event", "span_id", "span"))
        with open(os.path.join(directory, "resources.jsonl")) as handle:
            samples = [json.loads(line) for line in handle]
        assert samples
        assert tuple(samples[0]) == SAMPLE_FIELDS

    def test_prom_file_lints_clean(self, tmp_path):
        directory = str(tmp_path / "telemetry")
        self._run_once(directory)
        with open(os.path.join(directory, "metrics.prom")) as handle:
            assert lint_openmetrics(handle.read()) == []

    def test_absorb_worker_writes_per_pid_file(self, tmp_path):
        directory = str(tmp_path / "telemetry")
        metrics = obs.enable()
        exporter = TelemetryExporter(directory, interval=60.0)
        try:
            sample = {"ts": 1.0, "pid": 99999, "rss_bytes": 123,
                      "cpu_seconds": 0.5, "open_fds": 4,
                      "gc_collections": 0, "graph_nodes_live": 2,
                      "graph_edges_live": 1}
            exporter.absorb_worker(sample)
            exporter.flush()
        finally:
            error = exporter.stop()
            obs.disable()
        assert error is None
        worker_file = os.path.join(directory, "workers", "99999",
                                   "resources.jsonl")
        with open(worker_file) as handle:
            assert json.loads(handle.readline())["rss_bytes"] == 123
        with open(os.path.join(directory, "metrics.prom")) as handle:
            family = parse_openmetrics(
                handle.read())["repro_resource_rss_bytes"]
        workers = {labels["worker"] for _n, labels, _v in family.samples}
        assert "99999" in workers and "parent" in workers
        assert check_dir(directory) == []

    def test_absorb_worker_ignores_malformed_records(self, tmp_path):
        # Containment over crashing: a record without a pid (or a
        # non-dict) cannot be routed to a workers/<pid>/ file, so it
        # is dropped rather than failing the batch that shipped it.
        exporter = TelemetryExporter(str(tmp_path / "t"), interval=60.0)
        try:
            exporter.absorb_worker({"ts": 1.0})
            exporter.absorb_worker(None)
            assert exporter._worker_buffer == []
        finally:
            exporter.stop(flush=False)

    def test_monotone_across_registry_resets(self, tmp_path):
        directory = str(tmp_path / "telemetry")
        exporter = TelemetryExporter(directory, interval=60.0)
        try:
            for jobs in (10, 4):        # second window resets the registry
                metrics = obs.enable()
                metrics.incr("batch.jobs", jobs)
                exporter.flush()
                obs.disable()
        finally:
            error = exporter.stop(flush=False)
        assert error is None
        with open(os.path.join(directory, "metrics.jsonl")) as handle:
            published = [json.loads(line)["metrics"]["batch.jobs"]
                         for line in handle]
        assert published == [10, 14]
        assert check_dir(directory) == []

    def test_generation_checks_clean_right_after_start(self, tmp_path):
        # A process killed before the thread's first interval still
        # leaves a whole generation: start() flushes once itself.
        directory = str(tmp_path / "telemetry")
        obs.enable()
        exporter = TelemetryExporter(directory, interval=3600.0)
        try:
            exporter.start()
            assert check_dir(directory) == []
            assert exporter.flushes == 1
        finally:
            exporter.stop(flush=False)
            obs.disable()

    def test_interval_validated(self, tmp_path):
        with pytest.raises(ValueError):
            TelemetryExporter(str(tmp_path / "t"), interval=0)

    def test_directory_creation_error_propagates(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n")
        with pytest.raises(OSError):
            TelemetryExporter(str(blocker / "telemetry"))


class TestErrorContainment:
    def test_flush_error_is_contained_and_counted(self, tmp_path):
        directory = str(tmp_path / "telemetry")
        metrics = obs.enable()
        obs.enable_events()
        exporter = TelemetryExporter(directory, interval=60.0)
        try:
            exporter.flush()
            assert exporter.error is None
            # Sabotage the directory: appends now hit a missing parent.
            os.rename(directory, directory + ".moved")
            os.rename(directory + ".moved",
                      directory + ".gone")  # keep it gone
            exporter.flush()               # must not raise
            assert exporter.error is not None
            snap = metrics.snapshot()
            assert snap["obs.export.errors"] >= 1
            events = obs.get_event_log().snapshot()
            assert any(e["event"] == "export.flush_error" for e in events)
            error = exporter.stop(flush=False)
            assert error is exporter.error
        finally:
            obs.set_exporter(None)
            obs.disable_events()
            obs.disable()

    def test_background_thread_stops_cleanly(self, tmp_path):
        directory = str(tmp_path / "telemetry")
        obs.enable()
        exporter = TelemetryExporter(directory, interval=0.05)
        try:
            exporter.start()
            assert exporter._thread is not None
            deadline = threading.Event()
            deadline.wait(0.2)            # let a few intervals elapse
            assert exporter.stop() is None
        finally:
            obs.disable()
        assert exporter.flushes >= 2
        assert check_dir(directory) == []
