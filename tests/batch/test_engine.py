"""Tests for the process-pool batch engine."""

import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro import obs
from repro.apps.countpunct import FLOWLANG_SOURCE as COUNTPUNCT
from repro.batch import (BatchEngine, FaultPolicy, measure_program_runs,
                         measure_programs, shutdown_pools)
from repro.batch import engine as engine_module
from repro.graph.serialize import dumps_graph


@pytest.fixture
def metrics():
    live = obs.enable()
    try:
        yield live
    finally:
        obs.disable()


def double(x):
    return 2 * x


def record_solve(x):
    """A job that records a catalogued counter under its own registry."""
    obs.get_metrics().incr("maxflow.solves")
    obs.get_metrics().gauge("flow.bits", x)
    return x


def napping_pid(_):
    """The worker's pid, after a nap long enough to keep every worker
    of a small pool busy at once."""
    time.sleep(0.02)
    return os.getpid()


def exit_on_zero(x):
    if x == 0:
        os._exit(13)
    return x


def sleep_for(seconds):
    time.sleep(seconds)
    return seconds


def fan_out(n):
    """A job that itself fans out over a pool."""
    return BatchEngine(2).map(double, range(n))


def kept_pids():
    """Pids of the kept idle pool's workers."""
    pool, _ = engine_module._kept
    return set(pool._processes)


def is_dead(pid):
    """Exited: gone, or a zombie whose every thread has exited.

    A worker runs a parent-watch thread.  After a SIGKILL its leader
    reads ``Z`` while that thread is still exiting and still holds the
    shared fd table, so the pool's sentinel pipe is not yet at EOF; the
    process has exited only once ``task/`` lists the leader alone.
    """
    try:
        with open("/proc/%d/stat" % pid) as handle:
            if handle.read().rsplit(")", 1)[1].split()[0] != "Z":
                return False
        return os.listdir("/proc/%d/task" % pid) == [str(pid)]
    except (FileNotFoundError, ProcessLookupError):
        return True


def all_dead_within(pids, seconds):
    deadline = time.monotonic() + seconds
    while not all(is_dead(pid) for pid in pids):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


class TestEngine:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            BatchEngine(0)
        with pytest.raises(ValueError):
            BatchEngine(-2)

    def test_in_process_map_preserves_order(self):
        assert BatchEngine(1).map(double, range(5)) == [0, 2, 4, 6, 8]

    def test_pool_map_preserves_order(self):
        assert BatchEngine(2).map(double, range(6)) == \
            BatchEngine(1).map(double, range(6))

    def test_single_payload_stays_in_process(self, metrics):
        assert BatchEngine(4).map(double, [21]) == [42]
        snap = metrics.snapshot()
        assert snap["batch.jobs"] == 1
        assert snap["batch.workers"] == 1

    def test_empty_payloads(self, metrics):
        assert BatchEngine(3).map(double, []) == []
        assert metrics.snapshot()["batch.jobs"] == 0

    def test_batch_metrics_recorded(self, metrics):
        BatchEngine(1).map(double, range(4))
        snap = metrics.snapshot()
        assert snap["batch.jobs"] == 4
        assert snap["batch.workers"] == 1
        assert snap["batch.worker_seconds"] > 0

    def test_pool_workers_gauge(self, metrics):
        BatchEngine(2).map(double, range(4))
        snap = metrics.snapshot()
        assert snap["batch.jobs"] == 4
        assert snap["batch.workers"] == 2

    def test_pool_capped_by_payload_count(self, metrics):
        BatchEngine(8).map(double, range(2))
        assert metrics.snapshot()["batch.workers"] == 2


class TestCheckpointHooks:
    """The service-facing ``on_outcome``/``stop`` contract of ``map``."""

    def test_on_outcome_sees_every_slot_once_serial(self):
        seen = []
        BatchEngine(1).map(double, range(5),
                           on_outcome=lambda i, o: seen.append((i, o)))
        assert sorted(seen) == [(i, 2 * i) for i in range(5)]

    def test_on_outcome_sees_every_slot_once_pool(self):
        seen = []
        BatchEngine(2).map(double, range(6),
                           on_outcome=lambda i, o: seen.append((i, o)))
        assert sorted(seen) == [(i, 2 * i) for i in range(6)]

    def test_on_outcome_failure_records(self):
        from repro.batch import FaultPolicy, JobFailure

        def boom(x):
            if x == 2:
                raise ValueError("no")
            return x

        seen = {}
        engine = BatchEngine(1, faults=FaultPolicy(on_error="collect"))
        engine.map(boom, range(4),
                   on_outcome=lambda i, o: seen.__setitem__(i, o))
        assert isinstance(seen[2], JobFailure)
        assert seen[0] == 0 and seen[3] == 3

    def test_stop_leaves_pending_slots_serial(self):
        from repro.batch import PENDING
        done = []

        def work(x):
            done.append(x)
            return x

        outcomes = BatchEngine(1).map(work, range(10),
                                      stop=lambda: len(done) >= 3)
        assert done == [0, 1, 2]
        assert outcomes[:3] == [0, 1, 2]
        assert all(o is PENDING for o in outcomes[3:])

    def test_stop_before_start_leaves_all_pending(self):
        from repro.batch import PENDING
        outcomes = BatchEngine(1).map(double, range(4),
                                      stop=lambda: True)
        assert all(o is PENDING for o in outcomes)
        outcomes = BatchEngine(3).map(double, range(4),
                                      stop=lambda: True)
        assert all(o is PENDING for o in outcomes)

    def test_stop_pool_keeps_resolved_prefix(self):
        from repro.batch import PENDING
        resolved = []

        def note(i, o):
            resolved.append(i)

        outcomes = BatchEngine(2).map(
            double, range(12), on_outcome=note,
            stop=lambda: len(resolved) >= 2)
        for i, outcome in enumerate(outcomes):
            assert outcome is PENDING or outcome == 2 * i
        assert any(o is PENDING for o in outcomes)
        assert len(resolved) >= 2


class TestMetricsFolding:
    """Worker snapshots fold into the parent; totals match in-process."""

    def test_in_process_jobs_record_directly(self, metrics):
        BatchEngine(1).map(record_solve, [3, 9, 6])
        snap = metrics.snapshot()
        assert snap["maxflow.solves"] == 3
        assert snap["flow.bits"] == 6  # last in-process write wins

    def test_pool_counters_sum_gauges_max(self, metrics):
        BatchEngine(2).map(record_solve, [3, 9, 6])
        snap = metrics.snapshot()
        assert snap["maxflow.solves"] == 3
        assert snap["flow.bits"] == 9  # merged by max across workers

    def test_pool_records_nothing_when_disabled(self):
        assert not obs.enabled()
        results = BatchEngine(2).map(record_solve, [1, 2])
        assert results == [1, 2]
        assert obs.get_metrics().snapshot() == {}


class FakePool:
    def __init__(self):
        self.shut = False

    def shutdown(self, wait=True, cancel_futures=False):
        self.shut = True


class TestKeptPool:
    """One idle pool per process, leased exclusively by each map."""

    def test_consecutive_maps_share_workers(self):
        first = BatchEngine(2).map(napping_pid, range(4))
        pids = kept_pids()
        assert len(pids) == 2 and set(first) <= pids
        second = BatchEngine(2).map(napping_pid, range(4))
        assert set(second) <= pids
        assert kept_pids() == pids

    def test_other_worker_count_retires_idle_pool(self):
        BatchEngine(2).map(napping_pid, range(4))
        two = kept_pids()
        BatchEngine(3).map(napping_pid, range(6))
        three = kept_pids()
        assert len(three) == 3 and not two & three
        assert all_dead_within(two, 5.0)

    @pytest.mark.parametrize("func,payloads,policy", [
        (exit_on_zero, [0, 1, 2], FaultPolicy(on_error="collect")),
        (sleep_for, [30, 0.01], FaultPolicy(timeout=0.3,
                                             on_error="collect")),
    ], ids=["worker-exit", "timeout"])
    def test_broken_pool_is_never_kept(self, func, payloads, policy):
        BatchEngine(2).map(napping_pid, range(4))
        before = kept_pids()
        BatchEngine(2, faults=policy).map(func, payloads)
        after = BatchEngine(2).map(napping_pid, range(4))
        assert not set(after) & before
        assert all_dead_within(before, 5.0)

    def test_worker_killed_while_idle_costs_no_restart(self, metrics):
        BatchEngine(2).map(napping_pid, range(4))
        before = kept_pids()
        victim = min(before)
        os.kill(victim, signal.SIGKILL)
        assert all_dead_within([victim], 5.0)
        assert BatchEngine(2).map(double, range(6)) == \
            [0, 2, 4, 6, 8, 10]
        snap = metrics.snapshot()
        assert snap["batch.pool_restarts"] == 0
        assert snap["batch.failures"] == 0
        assert not kept_pids() & before

    def test_nested_fan_out(self):
        assert BatchEngine(2).map(fan_out, [2, 3, 4]) == \
            [[0, 2], [0, 2, 4], [0, 2, 4, 6]]
        assert BatchEngine(2).map(fan_out, [1, 2]) == [[0], [0, 2]]
        # Each worker keeps its own pool; retiring the outer one must
        # retire those too, not wait on their idle workers forever.
        retire = threading.Thread(target=shutdown_pools, daemon=True)
        retire.start()
        retire.join(timeout=30)
        assert not retire.is_alive()

    def test_lease_is_exclusive_and_one_pool_is_kept(self, monkeypatch):
        monkeypatch.setattr(engine_module, "_make_pool",
                            lambda workers: FakePool())
        first = engine_module._lease_pool(2)
        second = engine_module._lease_pool(2)
        assert first is not second
        engine_module._return_pool(first, 2)
        engine_module._return_pool(second, 2)
        assert second.shut and not first.shut
        assert engine_module._lease_pool(2) is first
        assert engine_module._lease_pool(2) is not first

    def test_concurrent_maps_never_share_a_pool(self, monkeypatch):
        leased, clashes, pids = set(), [], set()
        guard = threading.Lock()
        lease = engine_module._lease_pool
        give_back = engine_module._return_pool

        def checked_lease(workers):
            pool = lease(workers)
            with guard:
                if id(pool) in leased:
                    clashes.append(pool)
                leased.add(id(pool))
            return pool

        def checked_return(pool, workers):
            with guard:
                leased.discard(id(pool))
                pids.update(pool._processes)
            give_back(pool, workers)

        monkeypatch.setattr(engine_module, "_lease_pool", checked_lease)
        monkeypatch.setattr(engine_module, "_return_pool", checked_return)
        results = []

        def mapper():
            for n in range(4, 8):
                results.append(BatchEngine(2).map(double, range(n)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=mapper) for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(results) == sorted(
            [2 * i for i in range(n)] for n in range(4, 8) for _ in range(3))
        assert not clashes
        # Every pool was either kept or shut down: none leaks workers.
        shutdown_pools()
        assert all_dead_within(pids, 5.0)

    def test_repeated_program_runs_stay_bit_identical(self):
        secrets = [b"a.b?", b"", b"x . ? ! .", b"..??", b"no punct"]
        serial = measure_program_runs(COUNTPUNCT, secrets, jobs=1)
        pools = set()
        for _ in range(3):
            parallel = measure_program_runs(COUNTPUNCT, secrets, jobs=2)
            assert parallel.bits == serial.bits
            assert parallel.per_run_bits == serial.per_run_bits
            assert dumps_graph(parallel.report.graph) == \
                dumps_graph(serial.report.graph)
            pools.add(frozenset(kept_pids()))
        assert len(pools) == 1

    def test_measure_programs_resolves_backend_before_any_pool(
            self, monkeypatch):
        def no_pool(workers):
            raise AssertionError("a pool was made")

        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        monkeypatch.setattr(engine_module, "_make_pool", no_pool)
        source = "fn main() { output(secret_u8() & 1); }"
        with pytest.raises(ValueError, match="bogus"):
            measure_programs([("a", source, b"\x01"),
                              ("b", source, b"\x02")], jobs=2)

    def test_workers_import_nothing_the_parent_had_not(self):
        # A module a worker imports after the fork is compiled once per
        # worker instead of once in the parent: batch set-up pays it.
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-c", FORK_MODULES_SCRIPT],
                              env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        at_fork, workers = json.loads(done.stdout.splitlines()[-1])
        assert workers and sorted(set(workers) - set(at_fork)) == []
        assert "repro.lang.runner" in at_fork


FORK_MODULES_SCRIPT = textwrap.dedent("""
    import json, os, sys
    forks = []
    os.register_at_fork(before=lambda: forks.append(
        {m for m in sys.modules if m.startswith("repro")}))
    from repro.batch import BatchEngine, measure_program_runs

    def modules(_):
        return sorted(m for m in sys.modules if m.startswith("repro"))

    measure_program_runs("fn main() { output(secret_u8() & 7); }",
                         [b"a", b"b", b"c", b"d"], jobs=2)
    at_fork = set.intersection(*forks)
    seen = BatchEngine(2).map(modules, range(2))
    assert len(forks) == 2, len(forks)  # the probe ran in the kept pool
    print(json.dumps([sorted(at_fork), sorted(set().union(*seen))]))
""")


ORPHAN_SCRIPT = textwrap.dedent("""
    import os, sys
    from repro.batch import BatchEngine
    from repro.batch import engine

    def pid(_):
        return os.getpid()

    BatchEngine(2).map(pid, range(4))
    with open(sys.argv[1], "w") as handle:
        handle.write(" ".join(map(str, engine._kept[0]._processes)))
    os._exit(0)
""")


def test_workers_exit_after_their_parent_is_killed(tmp_path):
    """A kept pool's idle workers die with their parent.  The pids go
    through a file: the workers inherit the child's stdout, which is
    read to EOF here."""
    pid_file = tmp_path / "pids"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", ORPHAN_SCRIPT,
                           str(pid_file)], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    pids = [int(pid) for pid in pid_file.read_text().split()]
    assert len(pids) == 2
    assert all_dead_within(pids, 5.0)
