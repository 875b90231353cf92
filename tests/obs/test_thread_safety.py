"""The registry's opt-in thread-safety: exact totals under contention.

``Metrics.enable_thread_safety()`` is the lock the continuous
exporter's flusher thread relies on: once enabled, concurrent
increments, observations, and snapshots must neither lose updates nor
tear a histogram.  The default registry stays lock-free (the common
single-threaded path pays nothing), so the opt-in is one-way and
idempotent.
"""

import threading
import time

from repro import obs
from repro.obs.metrics import Metrics, NullMetrics


class TestOptIn:
    def test_default_is_lock_free(self):
        metrics = Metrics()
        assert not metrics.thread_safe

    def test_enable_is_idempotent_and_one_way(self):
        metrics = Metrics()
        assert metrics.enable_thread_safety() is metrics
        lock = metrics._lock
        assert metrics.thread_safe
        metrics.enable_thread_safety()
        assert metrics._lock is lock    # same lock, not a fresh one

    def test_null_metrics_is_trivially_thread_safe(self):
        null = NullMetrics()
        assert null.thread_safe
        assert null.enable_thread_safety() is null

    def test_values_survive_opt_in(self):
        metrics = Metrics()
        metrics.incr("batch.jobs", 5)
        metrics.enable_thread_safety()
        metrics.incr("batch.jobs", 2)
        assert metrics.snapshot()["batch.jobs"] == 7


class TestStress:
    THREADS = 8
    ROUNDS = 2000

    def _hammer(self, metrics, barrier, failures):
        try:
            barrier.wait()
            for round_index in range(self.ROUNDS):
                metrics.incr("batch.jobs")
                metrics.incr("batch.retries", 2)
                metrics.add_seconds("phase.solve.seconds", 0.001)
                metrics.observe("batch.job_seconds",
                                0.25 * (1 + round_index % 4))
                metrics.gauge_max("collapse.nodes_after", round_index)
        except Exception as exc:  # pragma: no cover - failure path
            failures.append(exc)

    def test_concurrent_updates_are_exact(self):
        metrics = Metrics().enable_thread_safety()
        barrier = threading.Barrier(self.THREADS)
        failures = []
        threads = [threading.Thread(target=self._hammer,
                                    args=(metrics, barrier, failures))
                   for _ in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []
        snap = metrics.snapshot()
        expected = self.THREADS * self.ROUNDS
        assert snap["batch.jobs"] == expected
        assert snap["batch.retries"] == 2 * expected
        assert abs(snap["phase.solve.seconds"] - 0.001 * expected) < 1e-6
        # The histogram must not be torn: every observation landed in
        # exactly one bucket.
        assert sum(snap["batch.job_seconds"].values()) == expected
        assert snap["collapse.nodes_after"] == self.ROUNDS - 1

    def test_concurrent_snapshots_are_coherent(self):
        metrics = Metrics().enable_thread_safety()
        stop = threading.Event()
        failures = []

        def snapshotter():
            try:
                while not stop.is_set():
                    snap = metrics.snapshot()
                    # Paired counters can never be observed out of
                    # order: jobs is always incremented first.
                    assert snap["batch.jobs"] >= snap["batch.retries"]
                    # Yield between snapshots.  A snapshotter that
                    # re-takes the lock at once convoys the
                    # incrementing thread behind it and the GIL, which
                    # stretched this test to seconds in a full run.
                    time.sleep(0)
            except Exception as exc:  # pragma: no cover - failure path
                failures.append(exc)

        reader = threading.Thread(target=snapshotter)
        reader.start()
        try:
            for _ in range(5000):
                metrics.incr("batch.jobs")
                metrics.incr("batch.retries")
        finally:
            stop.set()
            reader.join(10)
        assert not reader.is_alive()
        assert failures == []
        snap = metrics.snapshot()
        assert snap["batch.jobs"] == snap["batch.retries"] == 5000
