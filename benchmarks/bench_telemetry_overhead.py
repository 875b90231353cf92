#!/usr/bin/env python3
"""Telemetry overhead: the continuous exporter on vs off.

The continuous-export layer (``--telemetry-dir``) promises to be
cheap enough to leave on for real measurements: a background flusher
at a 1-second interval, a thread-safety lock on the registry, and a
live event log must together cost at most a few percent of trace
time.  This benchmark measures that directly on the Figure 3
compressor workload (the same ``phase.trace``-dominated workload the
observability overhead claim in ``docs/observability.md`` is pinned
on): the identical measurement runs with a live registry only
("off"), and again with a telemetry exporter flushing every second
into a scratch directory ("on").  Runs are interleaved so drift in
machine load hits both sides equally; the reported numbers are
medians of ``phase.trace.seconds``.

Two ways to run it:

* standalone — ``python benchmarks/bench_telemetry_overhead.py``
  prints the table and exits 1 when telemetry costs more than
  :data:`TELEMETRY_OVERHEAD_LIMIT` of trace time.  ``BENCH_5.json``
  records one such run.  Being a ratio of two interleaved runs on the
  same machine, the fraction is robust to machine-speed noise, but it
  is still a timing: no test or CI job gates on it.
* ``pytest benchmarks/bench_telemetry_overhead.py`` — a smoke run at
  reduced size asserting the exporter flushed and stayed lint-clean.
"""

import shutil
import sys
import tempfile

sys.path.insert(0, ".")  # allow running from the repo root

from repro import obs
from repro.apps.bzip2 import measure_compression_flow
from repro.apps.pi import workload_of_size

INPUT_BYTES = 2048
REPS = 3
#: Measurements per registry window: enough back-to-back runs that one
#: window spans several 1-second flushes, so the flusher's snapshot
#: contention is actually in the timed region (a single compressor run
#: is ~25ms — it would finish between flushes and measure nothing).
INNER = 40
INTERVAL = 1.0
#: Ceiling on the overhead fraction: continuous export may cost at most
#: 5% of trace time.
TELEMETRY_OVERHEAD_LIMIT = 0.05


def _trace_seconds(data, telemetry_dir=None, interval=INTERVAL,
                   inner=INNER):
    """``inner`` measurements' ``phase.trace.seconds`` under one registry.

    ``telemetry_dir`` switches the continuous exporter (plus the event
    log and the registry lock it brings) on for the run — everything
    ``--telemetry-dir`` would enable except span tracing, which has
    its own overhead pin.
    """
    obs.enable()
    exporter = None
    if telemetry_dir is not None:
        obs.enable_events()
        exporter = obs.TelemetryExporter(telemetry_dir, interval=interval)
        obs.set_exporter(exporter)
        exporter.start()
    try:
        for _ in range(inner):
            measure_compression_flow(data, online=True)
        seconds = obs.get_metrics().snapshot()["phase.trace.seconds"]
        error = None
        if exporter is not None:
            # Stop (with its final flush) before snapshotting, so the
            # returned metrics include obs.export.* for the whole run.
            obs.set_exporter(None)
            error = exporter.stop()
            obs.disable_events()
            exporter = None
        metrics = obs.get_metrics().snapshot()
        if error is not None:
            raise error
    finally:
        if exporter is not None:
            obs.set_exporter(None)
            exporter.stop()
            obs.disable_events()
        obs.disable()
    return seconds, metrics


def measure_overhead(input_bytes=INPUT_BYTES, reps=REPS,
                     interval=INTERVAL, inner=INNER):
    """Interleaved off/on runs; returns the medians, the overhead
    fraction, and the last "on" window's metrics."""
    data = workload_of_size(input_bytes)
    off_times = []
    on_times = []
    metrics = None
    scratch = tempfile.mkdtemp(prefix="repro-telemetry-bench-")
    try:
        for rep in range(reps):
            seconds, _ = _trace_seconds(data, inner=inner)
            off_times.append(seconds)
            seconds, metrics = _trace_seconds(
                data, telemetry_dir="%s/rep%d" % (scratch, rep),
                interval=interval, inner=inner)
            on_times.append(seconds)
            problems = obs.check_dir("%s/rep%d" % (scratch, rep))
            if problems:
                raise AssertionError("telemetry dir failed its own lint: "
                                     "%s" % problems)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    off_times.sort()
    on_times.sort()
    off_median = off_times[reps // 2]
    on_median = on_times[reps // 2]
    overhead = on_median / off_median - 1.0
    return {
        "input_bytes": input_bytes,
        "reps": reps,
        "interval_seconds": interval,
        "off_trace_seconds": off_median,
        "on_trace_seconds": on_median,
        "overhead_fraction": overhead,
        "metrics": metrics,
    }


def print_record(record):
    print("telemetry overhead (compressor %d bytes, %d interleaved reps, "
          "%.0fs flush interval)"
          % (record["input_bytes"], record["reps"],
             record["interval_seconds"]))
    print("%12s %14s" % ("telemetry", "trace(s)"))
    print("%12s %14.4f" % ("off", record["off_trace_seconds"]))
    print("%12s %14.4f" % ("on", record["on_trace_seconds"]))
    print("overhead: %.2f%%" % (100 * record["overhead_fraction"]))


def test_telemetry_overhead_smoke():
    """Reduced-size smoke: telemetry on works and lints clean."""
    record = measure_overhead(input_bytes=256, reps=1, interval=0.2,
                              inner=4)
    assert record["on_trace_seconds"] > 0
    assert record["metrics"]["obs.export.flushes"] >= 1


def main():
    record = measure_overhead()
    print_record(record)
    overhead = record["overhead_fraction"]
    if overhead > TELEMETRY_OVERHEAD_LIMIT:
        print("FAIL: telemetry overhead %.2f%% exceeds the %.0f%% ceiling"
              % (100 * overhead, 100 * TELEMETRY_OVERHEAD_LIMIT))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
