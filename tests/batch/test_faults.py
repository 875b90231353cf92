"""Fault-tolerance tests for the batch engine and its frontends.

Covers the acceptance criteria of the fault-tolerance layer:

(a) a crashing job under ``on_error="collect"`` yields a partial
    result naming the failed index, with the surviving results
    bit-identical to a serial run over the surviving payloads;
(b) a ``BrokenProcessPool`` mid-batch is retried via pool
    resurrection and the batch still completes;
(c) a hung job is cut off within ``timeout + grace``;
(d) ``on_error="raise"`` (the default) preserves the original
    exception behavior exactly.

Deterministic pool breakage is injected by monkeypatching the
module-level ``engine._make_pool`` factory with in-process test
doubles; worker crashes and hangs are exercised against the real
``ProcessPoolExecutor`` as well.
"""

import concurrent.futures
import os
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import obs
from repro.batch import (PENDING, BatchEngine, FaultPolicy, JobFailure,
                         measure_program_runs)
from repro.batch import engine as engine_module
from repro.batch import runs as runs_module
from repro.errors import BatchError, GraphError, JobError, JobTimeout


@pytest.fixture
def metrics():
    live = obs.enable()
    try:
        yield live
    finally:
        obs.disable()


# ----------------------------------------------------------------------
# Module-level job functions (must pickle by reference)


def square(x):
    return x * x


def crash_on_negative(x):
    if x < 0:
        raise ValueError("payload %d is negative" % x)
    return x * x


def exit_on_zero(x):
    """Kills its worker outright on payload 0: a real BrokenProcessPool."""
    if x == 0:
        os._exit(13)
    return x * x


def exit_on_zero_else_nap(x):
    """Like :func:`exit_on_zero`, but a good payload naps first, so it
    is still in flight when the killer's worker dies."""
    if x == 0:
        os._exit(13)
    time.sleep(0.2)
    return x * x


def sleep_for(seconds):
    time.sleep(seconds)
    return seconds


def slow_then_tag(pair):
    delay, tag = pair
    time.sleep(delay)
    return tag


def count_then_crash(x):
    """Increments a catalogued counter, then fails for payload 2."""
    obs.get_metrics().incr("maxflow.solves")
    if x == 2:
        raise RuntimeError("boom on %d" % x)
    return x


class Unpicklable(Exception):
    def __init__(self):
        super().__init__("cannot cross the process boundary")
        self.handle = lambda: None  # lambdas never pickle


def raise_unpicklable(_x):
    raise Unpicklable()


# ----------------------------------------------------------------------
# In-process pool test doubles (deterministic fault injection)


class SyncPool:
    """In-process ``ProcessPoolExecutor`` stand-in: submit runs eagerly."""

    def __init__(self):
        self.submitted = 0

    def submit(self, fn, *args):
        self.submitted += 1
        future = concurrent.futures.Future()
        try:
            future.set_result(fn(*args))
        except BaseException as error:  # pragma: no cover - job captures
            future.set_exception(error)
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class BrokenPool:
    """Every submitted future fails with ``BrokenProcessPool``."""

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_exception(BrokenProcessPool("injected pool death"))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class KillerPool(SyncPool):
    """Runs jobs eagerly until ``killer`` is submitted; that future and
    every later one then fail with ``BrokenProcessPool``, as calls
    queued in a real pool do when one of its workers dies."""

    def __init__(self, killer):
        super().__init__()
        self.killer = killer
        self.broken = False

    def submit(self, fn, item):
        self.broken = self.broken or item[1] == self.killer
        if self.broken:
            return BrokenPool().submit(fn, item)
        return super().submit(fn, item)


def install_flaky_pools(monkeypatch, broken_count=1):
    """First ``broken_count`` pools die; later pools run in-process."""
    made = []

    def factory(workers):
        pool = BrokenPool() if len(made) < broken_count else SyncPool()
        made.append(pool)
        return pool

    monkeypatch.setattr(engine_module, "_make_pool", factory)
    return made


# ----------------------------------------------------------------------
# FaultPolicy surface


class TestFaultPolicy:
    def test_defaults_preserve_raise_behavior(self):
        policy = FaultPolicy()
        assert policy.timeout is None
        assert policy.retries == 0
        assert policy.on_error == "raise"
        assert not policy.collecting

    @pytest.mark.parametrize("kwargs", [
        {"timeout": 0}, {"timeout": -1}, {"retries": -1},
        {"backoff": -0.1}, {"grace": 0}, {"on_error": "ignore"},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            FaultPolicy(**kwargs)

    def test_frontends_reject_both_forms(self):
        with pytest.raises(ValueError):
            runs_module._fault_policy(FaultPolicy(), 1.0, 0, "raise")


# ----------------------------------------------------------------------
# (d) raise mode preserves today's behavior exactly


class TestRaiseMode:
    def test_serial_raises_original_exception(self):
        with pytest.raises(ValueError, match="negative"):
            BatchEngine(1).map(crash_on_negative, [1, -2, 3])

    def test_pool_raises_original_exception(self):
        with pytest.raises(ValueError, match="negative"):
            BatchEngine(2).map(crash_on_negative, [1, -2, 3])

    def test_unpicklable_exception_becomes_job_error(self):
        """When the original exception cannot ship home, a JobError
        carrying the structured failure record is raised instead."""
        with pytest.raises(JobError) as excinfo:
            BatchEngine(2).map(raise_unpicklable, [1, 2])
        assert excinfo.value.failure.error_type == "Unpicklable"

    def test_serial_unpicklable_still_raises_original(self):
        """In-process nothing crosses a boundary: the original object
        propagates, exactly as before the fault layer existed."""
        with pytest.raises(Unpicklable):
            BatchEngine(1).map(raise_unpicklable, [1])


# ----------------------------------------------------------------------
# (a) collect mode: partial results, survivors bit-identical


class TestCollectMode:
    def outcomes(self, jobs):
        engine = BatchEngine(jobs, faults=FaultPolicy(on_error="collect"))
        return engine.map(crash_on_negative, [3, -7, 5, -1, 2])

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_failures_in_their_slots(self, jobs):
        outcomes = self.outcomes(jobs)
        assert [o.index if isinstance(o, JobFailure) else o
                for o in outcomes] == [9, 1, 25, 3, 4]
        for index in (1, 3):
            failure = outcomes[index]
            assert failure.error_type == "ValueError"
            assert "negative" in failure.error
            assert failure.attempts == 1
            assert not failure.transient
            assert not failure.quarantined

    def test_survivors_identical_to_serial_over_survivors(self):
        survivors = [o for o in self.outcomes(3)
                     if not isinstance(o, JobFailure)]
        assert survivors == BatchEngine(1).map(crash_on_negative, [3, 5, 2])

    def test_serial_and_pool_agree(self):
        def fingerprint(outcome):
            if not isinstance(outcome, JobFailure):
                return outcome
            record = outcome.to_dict(traceback=False)
            record.pop("seconds")  # wall time is inherently noisy
            return record

        assert [fingerprint(o) for o in self.outcomes(1)] == \
            [fingerprint(o) for o in self.outcomes(3)]

    def test_failure_record_carries_traceback(self):
        failure = self.outcomes(3)[1]
        assert failure.traceback is not None
        assert "crash_on_negative" in failure.traceback

    def test_failure_counters(self, metrics):
        self.outcomes(3)
        snap = metrics.snapshot()
        assert snap["batch.failures"] == 2
        assert snap["batch.retries"] == 0
        assert snap["batch.quarantined"] == 0


# ----------------------------------------------------------------------
# (b) broken pool mid-batch: resurrection and completion


class TestPoolResurrection:
    def test_injected_breakage_retried_to_completion(self, monkeypatch,
                                                     metrics):
        install_flaky_pools(monkeypatch, broken_count=1)
        engine = BatchEngine(2, faults=FaultPolicy(retries=1, backoff=0))
        assert engine.map(square, [1, 2, 3, 4]) == [1, 4, 9, 16]
        snap = metrics.snapshot()
        assert snap["batch.pool_restarts"] >= 1
        assert snap["batch.retries"] >= 1
        assert snap["batch.failures"] == 0

    def test_breakage_without_retries_raises_by_default(self, monkeypatch):
        install_flaky_pools(monkeypatch, broken_count=1)
        with pytest.raises(BrokenProcessPool):
            BatchEngine(2).map(square, [1, 2, 3, 4])

    def test_persistent_breakage_quarantines_under_collect(self,
                                                           monkeypatch,
                                                           metrics):
        install_flaky_pools(monkeypatch, broken_count=100)
        engine = BatchEngine(2, faults=FaultPolicy(
            retries=2, backoff=0, on_error="collect"))
        outcomes = engine.map(square, [5, 6])
        assert all(isinstance(o, JobFailure) for o in outcomes)
        assert all(o.transient and o.quarantined for o in outcomes)
        assert [o.index for o in outcomes] == [0, 1]
        snap = metrics.snapshot()
        assert snap["batch.quarantined"] == 2
        assert snap["batch.failures"] == 2

    def test_real_worker_death_is_survivable(self):
        """A worker calling os._exit kills the pool for real; the batch
        resurrects it, quarantines the killer, and finishes the rest."""
        engine = BatchEngine(2, faults=FaultPolicy(
            retries=2, backoff=0.01, on_error="collect"))
        outcomes = engine.map(exit_on_zero, [3, 0, 4])
        assert outcomes[0] == 9
        assert outcomes[2] == 16
        assert isinstance(outcomes[1], JobFailure)
        assert outcomes[1].transient
        assert outcomes[1].quarantined

    def test_bystander_of_a_pool_killer_is_never_struck(self, metrics):
        """The killer and a napping good job always share the first
        pool.  The good job re-runs alone and survives; only the killer,
        breaking pools on its own, spends its retries and is
        quarantined."""
        engine = BatchEngine(2, faults=FaultPolicy(
            retries=2, backoff=0, on_error="collect"))
        outcomes = engine.map(exit_on_zero_else_nap, [0, 4])
        assert outcomes[1] == 16
        assert isinstance(outcomes[0], JobFailure)
        assert outcomes[0].transient and outcomes[0].quarantined
        snap = metrics.snapshot()
        assert snap["batch.quarantined"] == 1
        assert snap["batch.failures"] == 1


    def test_queued_jobs_behind_a_pool_killer_are_not_struck(
            self, monkeypatch, metrics):
        """Two jobs run and two wait behind them.  The pool dies under
        the killer while the other two are still queued: only the
        killer, the one started job in flight, is struck."""
        made = []

        def factory(workers):
            made.append(KillerPool(0) if not made else SyncPool())
            return made[-1]

        monkeypatch.setattr(engine_module, "_make_pool", factory)
        engine = BatchEngine(2, faults=FaultPolicy(on_error="collect"))
        outcomes = engine.map(square, [1, 0, 3, 4, 5])
        assert isinstance(outcomes[1], JobFailure)
        assert outcomes[1].quarantined and outcomes[1].attempts == 1
        assert [outcomes[i] for i in (0, 2, 3, 4)] == [1, 9, 16, 25]
        snap = metrics.snapshot()
        assert snap["batch.failures"] == 1
        assert snap["batch.retries"] == 0
        assert snap["batch.pool_restarts"] == 1


# ----------------------------------------------------------------------
# (c) hung jobs are cut off within timeout + grace


class TestTimeouts:
    def test_hung_job_cut_off_within_budget(self, metrics):
        policy = FaultPolicy(timeout=0.5, on_error="collect")
        engine = BatchEngine(2, faults=policy)
        t0 = time.monotonic()
        outcomes = engine.map(sleep_for, [0.01, 60.0])
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0 * 0.5, "hung job was not cut off"
        assert elapsed < 10.0, "cut-off took far longer than timeout+grace"
        assert outcomes[0] == 0.01
        failure = outcomes[1]
        assert isinstance(failure, JobFailure)
        assert failure.error_type == "JobTimeout"
        assert failure.transient and failure.quarantined
        snap = metrics.snapshot()
        assert snap["batch.timeouts"] >= 1
        assert snap["batch.pool_restarts"] >= 1
        assert snap["batch.quarantined"] == 1

    def test_timeout_raises_by_default(self):
        engine = BatchEngine(2, faults=FaultPolicy(timeout=0.5))
        with pytest.raises(JobTimeout):
            engine.map(sleep_for, [0.01, 60.0])

    def test_serial_post_hoc_classification(self, metrics):
        """In-process a running job cannot be preempted: the attempt
        completes, then is classified as timed out — same policy
        surface, same records."""
        engine = BatchEngine(1, faults=FaultPolicy(
            timeout=0.05, on_error="collect"))
        outcomes = engine.map(sleep_for, [0.001, 0.2])
        assert outcomes[0] == 0.001
        failure = outcomes[1]
        assert isinstance(failure, JobFailure)
        assert failure.error_type == "JobTimeout"
        assert failure.quarantined
        snap = metrics.snapshot()
        assert snap["batch.timeouts"] == 1
        assert snap["batch.quarantined"] == 1

    def test_serial_timeout_retries_then_quarantines(self, metrics):
        engine = BatchEngine(1, faults=FaultPolicy(
            timeout=0.02, retries=2, backoff=0, on_error="collect"))
        outcomes = engine.map(sleep_for, [0.1])
        assert isinstance(outcomes[0], JobFailure)
        assert outcomes[0].attempts == 3
        snap = metrics.snapshot()
        assert snap["batch.retries"] == 2
        assert snap["batch.timeouts"] == 3

    def test_innocent_victims_are_not_struck(self, metrics):
        """Jobs sharing the pool with a hung sibling are re-run without
        consuming their retry budget (retries=0 still completes them)."""
        engine = BatchEngine(3, faults=FaultPolicy(
            timeout=1.0, on_error="collect"))
        outcomes = engine.map(sleep_for, [60.0, 0.8, 0.7])
        assert isinstance(outcomes[0], JobFailure)
        assert outcomes[1] == 0.8
        assert outcomes[2] == 0.7
        assert metrics.snapshot()["batch.quarantined"] == 1


    def test_queued_job_deadline_starts_when_it_runs(self, metrics):
        """Two workers, three jobs: the third waits behind a 0.8 s
        sibling, and its 1 s budget counts from when a worker takes it."""
        engine = BatchEngine(2, faults=FaultPolicy(
            timeout=1.0, on_error="collect"))
        assert engine.map(sleep_for, [0.8, 0.8, 0.8]) == [0.8, 0.8, 0.8]
        snap = metrics.snapshot()
        assert snap["batch.timeouts"] == 0
        assert snap["batch.pool_restarts"] == 0


# ----------------------------------------------------------------------
# Ordering: results reassemble by payload index, not completion order


class TestOrdering:
    def test_slow_first_payload_keeps_its_slot(self):
        payloads = [(0.4, "first"), (0.0, "second"), (0.0, "third")]
        assert BatchEngine(3).map(slow_then_tag, payloads) == \
            ["first", "second", "third"]

    def test_collect_mode_keeps_slots_too(self):
        engine = BatchEngine(3, faults=FaultPolicy(on_error="collect"))
        outcomes = engine.map(crash_on_negative, [-1, 4])
        assert isinstance(outcomes[0], JobFailure)
        assert outcomes[0].index == 0
        assert outcomes[1] == 16


    def test_stop_with_jobs_queued_leaves_a_resolved_prefix(self):
        """``stop()`` fires once the first job resolves, with others
        queued behind the workers: launched jobs drain, the rest stay
        PENDING, and no slot is checkpointed twice."""
        resolved = []
        outcomes = BatchEngine(2).map(
            sleep_for, [0.05] * 10,
            on_outcome=lambda index, outcome: resolved.append(index),
            stop=lambda: bool(resolved))
        done = [o is not PENDING for o in outcomes]
        prefix = done.index(False)
        assert 2 <= prefix < len(outcomes)
        assert not any(done[prefix:])
        assert sorted(resolved) == list(range(prefix))


# ----------------------------------------------------------------------
# Observability under failure (metrics fold, spans carry error=True)


class TestFailureObservability:
    def test_partial_metrics_survive_failure(self, metrics):
        """A failing job's counters recorded before the crash still fold
        into the parent: totals equal completed work, not completed jobs."""
        engine = BatchEngine(2, faults=FaultPolicy(on_error="collect"))
        engine.map(count_then_crash, [1, 2, 3, 4])
        snap = metrics.snapshot()
        assert snap["maxflow.solves"] == 4  # every job incremented first
        assert snap["batch.failures"] == 1
        assert snap["batch.jobs"] == 4

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_job_spans_marked(self, jobs):
        tracer = obs.enable_tracing()
        try:
            engine = BatchEngine(jobs,
                                 faults=FaultPolicy(on_error="collect"))
            engine.map(crash_on_negative, [3, -7])
            spans = tracer.snapshot()
        finally:
            obs.disable_tracing()
        job_spans = [s for s in spans if s["name"] == "batch.job"]
        assert len(job_spans) == 2
        errored = [s for s in job_spans if s["attrs"].get("error")]
        assert len(errored) == 1
        assert errored[0]["attrs"]["error_type"] == "ValueError"

    def test_failure_record_ships_worker_snapshot(self, metrics):
        engine = BatchEngine(2, faults=FaultPolicy(on_error="collect"))
        outcomes = engine.map(count_then_crash, [2, 3])
        failure = outcomes[0]
        assert isinstance(failure, JobFailure)
        assert failure.metrics is not None
        assert failure.metrics["maxflow.solves"] == 1


# ----------------------------------------------------------------------
# Frontend: measure_program_runs degrades explicitly (Kraft soundness)


CRASHY = """
fn main() {
    var x: u8 = secret_u8();
    output(250 / x);
}
"""


class TestPartialBatchResult:
    SECRETS = [b"\x05", b"\x00", b"\x0a"]  # the zero divides by zero

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_partial_result_names_failed_run(self, jobs):
        result = measure_program_runs(CRASHY, self.SECRETS, jobs=jobs,
                                      on_error="collect")
        assert result.partial
        assert result.runs == 2
        assert result.attempted == 3
        assert [f.index for f in result.failures] == [1]
        assert result.failures[0].error_type == "VMError"
        assert result.report.partial
        assert any("partial result" in w for w in result.report.warnings)

    def test_survivor_bound_matches_serial_over_survivors(self):
        partial = measure_program_runs(CRASHY, self.SECRETS, jobs=2,
                                       on_error="collect")
        clean = measure_program_runs(CRASHY, [b"\x05", b"\x0a"], jobs=1)
        assert partial.bits == clean.bits
        assert partial.per_run_bits == clean.per_run_bits
        assert partial.kraft_sum == clean.kraft_sum
        assert not clean.partial

    def test_raise_mode_propagates_vm_error(self):
        from repro.errors import VMError
        with pytest.raises(VMError, match="division by zero"):
            measure_program_runs(CRASHY, self.SECRETS, jobs=2)

    def test_all_runs_failing_raises_batch_error(self):
        with pytest.raises(BatchError, match="all 2 runs failed"):
            measure_program_runs(CRASHY, [b"\x00", b"\x00"],
                                 on_error="collect")

    def test_corrupt_worker_graph_is_a_job_failure(self, monkeypatch,
                                                   metrics):
        """A graph that fails to parse on arrival marks *that run*
        failed instead of crashing the merge."""
        real_load = runs_module._load_text
        calls = []

        def flaky_load(text):
            calls.append(text)
            if len(calls) == 2:
                raise GraphError("simulated corruption")
            return real_load(text)

        monkeypatch.setattr(runs_module, "_load_text", flaky_load)
        result = measure_program_runs(CRASHY, [b"\x05", b"\x0a", b"\x07"],
                                      jobs=1, on_error="collect")
        assert result.partial
        assert [f.index for f in result.failures] == [1]
        assert result.failures[0].error_type == "GraphError"
        assert result.runs == 2
        assert metrics.snapshot()["batch.failures"] == 1

    def test_corrupt_worker_graph_raises_by_default(self, monkeypatch):
        def broken_load(_text):
            raise GraphError("simulated corruption")

        monkeypatch.setattr(runs_module, "_load_text", broken_load)
        with pytest.raises(GraphError):
            measure_program_runs(CRASHY, [b"\x05"], jobs=1)

    def test_deadline_inside_worker_is_nontransient(self):
        """A VM wall-clock deadline is the program's fault, not the
        infrastructure's: it is never retried."""
        hang = """
        fn main() {
            var x: u8 = secret_u8();
            var i: u32 = 0;
            while (x > 100) {
                i = i + 1;
            }
            output(x);
        }
        """
        result = measure_program_runs(hang, [b"\x20", b"\xff"], jobs=2,
                                      deadline_seconds=0.3, retries=3,
                                      on_error="collect")
        assert result.partial
        failure = result.failures[0]
        assert failure.index == 1
        assert failure.error_type == "VMTimeout"
        assert failure.attempts == 1  # non-transient: no retries burned
        assert not failure.transient
