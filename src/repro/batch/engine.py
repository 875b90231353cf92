"""Process-pool fan-out for independent measurement jobs.

The paper's workloads are dominated by *independent* instrumented
executions: the Section 3.2 multi-run combination, the Section 10.1
per-category sweep, and the Section 8 app audits all repeat the
expensive trace/solve work over inputs that share nothing until the
final merge.  :class:`BatchEngine` exploits that independence with a
process pool (``concurrent.futures.ProcessPoolExecutor``), keeping the
merge — and therefore the result — exactly what the serial pipeline
produces.

Design rules that make ``jobs=N`` bit-identical to ``jobs=1``:

* job functions are pure: payload in, picklable result out.  With
  ``jobs=1`` the engine calls the *same* function in-process, so both
  modes execute identical code (including any serialization round
  trips) and differ only in where it runs;
* workers never touch the parent's metrics registry.  Each job runs
  under a fresh registry (:func:`repro.obs.enable` in the worker) and
  ships its snapshot home, where the parent folds it in with
  :meth:`~repro.obs.metrics.Metrics.merge` — counters and timers add,
  so parent totals equal the sum over jobs regardless of how jobs were
  distributed over workers.

``ProcessPoolExecutor`` is used rather than ``multiprocessing.Pool``
deliberately: its workers are non-daemonic, so a job may itself fan out.

Pool lifetime
-------------

A pool outlives the map that made it: each process keeps at most one
idle pool, and a ``jobs=N`` map leases it when its worker count fits,
so a process that maps many times (the serve daemon, a ``--store``
batch's tree levels, a sweep over secret domains) forks, imports and
compiles once.  The contract:

* a lease is exclusive — a map running beside another (in another
  thread) finds the slot empty and makes its own pool; returning a
  second pool shuts it down;
* only a map that ends cleanly (every future resolved, including a
  drained ``stop()`` map and one under a ``timeout`` policy) gives its
  pool back; a pool that broke, timed out or was aborted is terminated;
* an idle pool whose worker exited (every thread gone) is dropped at
  the next lease, which starts a fresh one without counting a restart
  or striking a job.  A worker still exiting at the lease counts the
  same as one killed just after it: the fault policy handles it;
* a forked child never sees its parent's pool (the slot is cleared at
  fork), and a worker exits on its own once its parent is gone;
* workers keep every file descriptor that was open when they were
  forked, until the pool retires.  :func:`shutdown_pools` retires the
  kept pool now; interpreter exit retires it anyway.

Jobs take everything through their payloads (see below), so a worker
forked several maps ago computes what a fresh one would.

Dispatch
--------

A ``jobs=N`` map keeps up to ``2 × workers`` jobs submitted: each
worker runs one and has one queued behind it, so a worker that
finishes takes its next job straight from the pool's call queue instead
of waiting for the parent to see the result and submit again.  The
pool hands calls to workers in submission order, so the oldest
``workers`` unresolved jobs are the *started* ones; when a started job
resolves, the oldest queued job becomes started.  Only a started job
runs against its ``timeout``, from the moment it became started, so a
deadline measures running time, not time spent queued.

Fault tolerance
---------------

At corpus scale, per-input failure is routine: a program crashes on one
secret, a worker hangs, the pool dies.  The engine dispatches with
``submit`` + completion waits (never bare ``pool.map``) under a
:class:`FaultPolicy`:

* *job exceptions* are captured worker-side as structured, picklable
  :class:`JobFailure` records — the worker's partial metrics snapshot
  and spans still ride home, so observability survives failure.  They
  are **non-transient**: re-running a deterministic job would fail the
  same way, so they are never retried.
* *transient failures* — a per-job wall-clock ``timeout``, a
  ``BrokenProcessPool``, a pickling transport error — are retried with
  exponential backoff, up to ``retries`` times per job.  The pool is
  torn down and resurrected; a job that keeps striking is quarantined
  (recorded as a :class:`JobFailure` instead of looping forever).  A
  broken pool does not say which job killed it, so when several
  started jobs shared it they are re-run one at a time before fan-out
  resumes: only a job that breaks a pool on its own takes a strike.
  Queued jobs of a torn-down pool (broken or killed for a timeout) go
  back to the front of the queue with their attempt undone: no strike,
  no retry, no event.  One a worker took just before the parent saw
  its sibling finish is thereby re-run, not struck; if it did break
  the pool, it breaks the next one as a started job and is struck then.
* ``on_error="raise"`` (the default) re-raises the first failure's
  original exception, preserving the pre-fault-tolerance behavior;
  ``on_error="collect"`` returns the failure records in the result
  list, so one bad payload no longer aborts the whole batch.

The ``jobs=1`` in-process path implements the identical policy surface
(same capture, same retry accounting, same ``JobFailure`` records), so
the bit-identicality contract extends to failure handling.  The one
necessary asymmetry: in-process, a running job cannot be preempted, so
``timeout`` is enforced *post hoc* — the job runs to completion and the
attempt is then classified as timed out.
"""

from __future__ import annotations

import collections
import os
import pickle
import threading
import time
import traceback as _traceback

from .. import obs
from ..errors import BatchError, JobError, JobTimeout

#: Accepted ``FaultPolicy.on_error`` modes.
ON_ERROR_MODES = ("raise", "collect")


class FaultPolicy:
    """How a batch fan-out reacts when a job misbehaves.

    Args:
        timeout: per-job wall-clock budget in seconds, or ``None`` (no
            limit).  In the pool path a job past its deadline is cut
            off by terminating its worker (the pool is resurrected);
            in-process the attempt is classified after the fact.
        retries: how many times a job struck by a *transient* failure
            (timeout, broken pool, pickling transport) is re-submitted
            before being quarantined.  Worker-side job exceptions are
            deterministic and never retried.
        backoff: base seconds of the exponential backoff slept before a
            transient re-submission (``backoff * 2**(strike-1)``).
        grace: seconds of slack allowed past ``timeout`` for detection
            and worker termination; a hung job is gone within
            ``timeout + grace`` wall seconds.
        on_error: ``"raise"`` (default) re-raises the first failure;
            ``"collect"`` records failures as :class:`JobFailure`
            entries in the result list.
    """

    __slots__ = ("timeout", "retries", "backoff", "grace", "on_error")

    def __init__(self, timeout=None, retries=0, backoff=0.05, grace=1.0,
                 on_error="raise"):
        if timeout is not None and not timeout > 0:
            raise ValueError("timeout must be positive or None, got %r"
                             % (timeout,))
        retries = int(retries)
        if retries < 0:
            raise ValueError("retries must be >= 0, got %d" % retries)
        if backoff < 0:
            raise ValueError("backoff must be >= 0, got %r" % (backoff,))
        if not grace > 0:
            raise ValueError("grace must be positive, got %r" % (grace,))
        if on_error not in ON_ERROR_MODES:
            raise ValueError("on_error must be one of %r, got %r"
                             % (ON_ERROR_MODES, on_error))
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.grace = grace
        self.on_error = on_error

    @property
    def collecting(self):
        return self.on_error == "collect"

    def __repr__(self):
        return ("FaultPolicy(timeout=%r, retries=%d, backoff=%r, "
                "grace=%r, on_error=%r)"
                % (self.timeout, self.retries, self.backoff, self.grace,
                   self.on_error))


class JobFailure:
    """Structured, picklable record of one failed batch job.

    Built worker-side for job exceptions (so the original traceback
    text survives the process boundary even when the exception object
    does not pickle) and parent-side for transport-level failures.

    Attributes:
        index: the payload's position in the batch.
        error_type: the exception class name (e.g. ``"VMError"``).
        error: ``repr()`` of the exception.
        traceback: formatted traceback text, or ``None``.
        seconds: in-job wall time of the failing attempt (``None`` when
            the attempt never produced a measurable interval, e.g. a
            terminated hung worker).
        metrics: the worker's partial metrics snapshot, or ``None``
            (in-process jobs record into the live registry directly).
        spans: the worker's span dicts, or ``None`` (adopted into the
            parent tracer by the engine; kept here for callers that
            inspect failures without tracing enabled).
        attempts: how many times the job was attempted in total.
        transient: whether the final failure was transport-level
            (timeout / broken pool / pickling) rather than a job
            exception.
        quarantined: whether the job was dropped after exhausting its
            transient retry budget.
        exception: the original exception object when it pickled,
            else ``None``.
    """

    __slots__ = ("index", "error_type", "error", "traceback", "seconds",
                 "metrics", "spans", "attempts", "transient",
                 "quarantined", "exception")

    def __init__(self, index, error_type, error, traceback=None,
                 seconds=None, metrics=None, spans=None, attempts=1,
                 transient=False, quarantined=False, exception=None):
        self.index = index
        self.error_type = error_type
        self.error = error
        self.traceback = traceback
        self.seconds = seconds
        self.metrics = metrics
        self.spans = spans
        self.attempts = attempts
        self.transient = transient
        self.quarantined = quarantined
        self.exception = exception

    @classmethod
    def from_exception(cls, index, error, seconds=None, transient=False,
                       quarantined=False, with_traceback=True):
        traceback_text = None
        if with_traceback and error.__traceback__ is not None:
            traceback_text = "".join(_traceback.format_exception(
                type(error), error, error.__traceback__))
        return cls(index, type(error).__name__, repr(error),
                   traceback=traceback_text, seconds=seconds,
                   transient=transient, quarantined=quarantined,
                   exception=_transportable(error))

    def raise_(self):
        """Re-raise the original exception (or a :class:`JobError`)."""
        if self.exception is not None:
            raise self.exception
        raise JobError("job %d failed: %s" % (self.index, self.error),
                       index=self.index, failure=self)

    def to_dict(self, traceback=True):
        """The failure as a plain JSON-able dict (for reports/CLIs)."""
        payload = {
            "index": self.index,
            "error_type": self.error_type,
            "error": self.error,
            "seconds": self.seconds,
            "attempts": self.attempts,
            "transient": self.transient,
            "quarantined": self.quarantined,
        }
        if traceback:
            payload["traceback"] = self.traceback
        return payload

    def __repr__(self):
        return "JobFailure(index=%d, %s: %s%s)" % (
            self.index, self.error_type, self.error,
            ", quarantined" if self.quarantined else "")


def _transportable(error):
    """The exception itself when it survives pickling, else ``None``."""
    try:
        pickle.loads(pickle.dumps(error))
    except Exception:
        return None
    return error


#: Seconds between a pool worker's checks that its parent still lives.
_PARENT_POLL_SECONDS = 0.25

# The kept idle pool, ``(pool, workers)`` or ``None``; see "Pool
# lifetime" above.  Only the lease/return helpers touch it, under the
# lock.
_kept = None
_kept_lock = threading.Lock()
# The pid that registered the exit-time retirement hook.
_exit_hook_pid = None


def _forget_pools():
    """At-fork hook: a forked child starts with no kept pool."""
    global _kept, _kept_lock
    _kept = None
    _kept_lock = threading.Lock()


os.register_at_fork(after_in_child=_forget_pools)


def _watch_parent(parent_pid):
    """Pool worker initializer: exit once ``parent_pid`` is gone.

    An idle worker blocks on its call queue forever; without this, a
    parent killed outright would leave its workers re-parented to init,
    holding the parent's inherited descriptors (its stdout pipe, say)
    open.
    """
    def watch():
        while os.getppid() == parent_pid:
            time.sleep(_PARENT_POLL_SECONDS)
        os._exit(0)

    threading.Thread(target=watch, name="repro-parent-watch",
                     daemon=True).start()


def _make_pool(workers):
    """Pool factory (module-level so fault tests can monkeypatch it).

    Workers are forked, so the pool's owner is each worker's parent,
    which :func:`_watch_parent` relies on.
    """
    import concurrent.futures
    import multiprocessing
    return concurrent.futures.ProcessPoolExecutor(
        max_workers=workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_watch_parent, initargs=(os.getpid(),))


def _pool_alive(pool):
    """Whether an idle pool can still take work.

    Checks the workers' exit sentinels as well as the executor's own
    ``_broken`` flag, which its manager thread sets only some time after
    a worker dies.
    """
    import multiprocessing.connection
    if getattr(pool, "_broken", False):
        return False
    processes = getattr(pool, "_processes", None)
    if not processes:
        return True
    # ``list`` snapshots the dict in one step: the pool's manager
    # thread may be clearing it.
    sentinels = [process.sentinel for process in list(processes.values())]
    return not multiprocessing.connection.wait(sentinels, timeout=0)


def _retire_pool(pool):
    """Shut an idle pool down: join live workers, kill a dead pool's."""
    if _pool_alive(pool):
        pool.shutdown(wait=True)
    else:
        _terminate_pool(pool)


def _lease_pool(workers):
    """A pool of ``workers`` processes for one map's exclusive use: the
    kept idle pool when it fits and is alive, else a new one."""
    global _kept
    with _kept_lock:
        kept, _kept = _kept, None
    if kept is not None:
        pool, size = kept
        if size == workers and _pool_alive(pool):
            return pool
        _retire_pool(pool)
    return _make_pool(workers)


def _return_pool(pool, workers):
    """Keep a cleanly finished map's pool for the next lease; with a
    pool already kept, shut this one down instead."""
    global _kept, _exit_hook_pid
    with _kept_lock:
        if _kept is None:
            _kept = (pool, workers)
            if _exit_hook_pid != os.getpid():
                # A multiprocessing child (a worker that fanned out)
                # joins its non-daemonic children at exit, after these
                # finalizers: retire the kept pool first, or that join
                # waits on idle workers forever.  Priority above the
                # queues' own (10), so the call queue's feeder thread
                # still runs to deliver the shutdown sentinels.
                import multiprocessing.util
                _exit_hook_pid = os.getpid()
                multiprocessing.util.Finalize(None, shutdown_pools,
                                              exitpriority=20)
            return
    pool.shutdown(wait=True)


def shutdown_pools():
    """Retire the kept worker pool, if any.

    Idle workers are joined (killed if the pool is already broken); the
    next ``jobs>1`` map forks a fresh pool from the process as it is
    then.  Interpreter exit retires the pool anyway; call this to give
    back the workers, and the descriptors they inherited, sooner.
    """
    global _kept
    with _kept_lock:
        kept, _kept = _kept, None
    if kept is not None:
        _retire_pool(kept[0])


def _terminate_pool(pool):
    """Kill a pool's workers outright (the only cure for a hung job)."""
    processes = getattr(pool, "_processes", None)
    processes = list(processes.values()) if processes else []
    for process in processes:
        try:
            process.terminate()
        except Exception:
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    for process in processes:
        try:
            process.join(timeout=1.0)
        except Exception:
            pass


def _call_job(item):
    """Run one job in a worker process.

    Returns ``(ok, value, metrics_snapshot, span_dicts, events,
    resource_sample, wall)``; on success ``value`` is the job's result,
    on a job exception it is a :class:`JobFailure` (``ok`` False).
    Must be a module-level function so it pickles.  When the parent had
    metrics enabled at dispatch time (``capture``), the job runs under
    a fresh registry whose snapshot rides back with the result; the
    fork-inherited parent registry is never written to, so nothing is
    double-counted when the parent later merges.  Likewise, when the
    parent had tracing enabled (``capture_trace``), the job runs under
    a fresh worker tracer, inside a ``batch.job`` root span, and the
    finished span dicts ride home for the parent to ``adopt``; with
    event logging on (``capture_events``) the job's drained event
    records ride home the same way.  When the parent has a telemetry
    exporter running (``capture_resources``), a resource sample is
    taken at job end — *before* the metrics snapshot, so the
    ``resource.*`` gauges merge home as cross-worker high-water marks —
    and shipped back for the exporter's per-worker time series.
    Exceptions are captured here — never propagated — so the snapshot,
    spans, and events survive failure too.
    """
    (func, payload, index, capture, capture_trace, capture_events,
     capture_resources) = item
    t0 = time.perf_counter()
    # A kept worker outlives the map it was forked for: set every sink
    # from this job's flags, never from what the fork inherited.
    for on, enable, disable in (
            (capture, obs.enable, obs.disable),
            (capture_trace, obs.enable_tracing, obs.disable_tracing),
            (capture_events, obs.enable_events, obs.disable_events)):
        (enable if on else disable)()
    try:
        span = obs.get_tracer().span("batch.job", index=index)
        with span:
            try:
                value = func(payload)
                ok = True
            except Exception as error:
                value = JobFailure.from_exception(
                    index, error, seconds=time.perf_counter() - t0)
                span.set(error=True, error_type=type(error).__name__)
                ok = False
        rsample = None
        if capture_resources:
            from ..obs import resources
            rsample = resources.sample(obs.get_metrics())
        snapshot = obs.get_metrics().snapshot() if capture else None
        spans = obs.get_tracer().snapshot() if capture_trace else None
        events = obs.get_event_log().drain() if capture_events else None
    finally:
        obs.disable()
        obs.disable_tracing()
        obs.disable_events()
    return ok, value, snapshot, spans, events, rsample, \
        time.perf_counter() - t0


class _MapStats:
    """Per-``map`` fault accounting, folded into ``batch.*`` metrics."""

    __slots__ = ("walls", "failed", "retries", "timeouts", "restarts",
                 "quarantined")

    def __init__(self):
        self.walls = []
        self.failed = 0
        self.retries = 0
        self.timeouts = 0
        self.restarts = 0
        self.quarantined = 0


class BatchEngine:
    """Fan a job function over payloads across ``jobs`` worker processes.

    ``jobs=1`` (the default) runs everything in-process — no pool, no
    pickling, jobs record straight into the process-wide metrics
    registry.  ``jobs=N`` dispatches to ``min(N, len(payloads))``
    worker processes — the process's kept pool when one of that size
    is idle (see the module's "Pool lifetime" notes and
    :func:`shutdown_pools`) — and merges each job's metrics snapshot
    into the parent registry.  ``faults`` (a :class:`FaultPolicy`)
    governs timeouts, retries, and whether failures raise or are
    collected; the default policy raises on the first failure, exactly
    as the pre-fault-tolerance engine did.

    Either way the engine records the ``batch.*`` catalogue keys:
    ``batch.jobs`` (jobs executed), ``batch.workers`` (pool size of the
    most recent ``map``), ``batch.worker_seconds`` (summed in-job wall
    time — with N workers this exceeds elapsed wall time, which is the
    point), the ``batch.job_seconds`` histogram (one observation per
    attempt), and the fault counters ``batch.failures`` /
    ``batch.retries`` / ``batch.timeouts`` / ``batch.pool_restarts`` /
    ``batch.quarantined``.  With tracing enabled, the fan-out runs
    under a ``batch.map`` span, each job under a ``batch.job`` span —
    recorded worker-side for ``jobs=N`` and adopted back into the
    parent tracer, re-rooted under the ``batch.map`` span, with worker
    pids kept so the Chrome trace export shows one track per worker;
    failed jobs' spans carry ``error=True``.

    With event logging enabled, the fault path is narrated as
    structured events (``batch.retry`` / ``batch.timeout`` /
    ``batch.quarantine`` / ``batch.failure`` / ``batch.pool_restart``),
    emitted parent-side inside the ``batch.map`` span so each record
    carries that span's id; workers' own drained events are adopted
    home alongside their spans.  When a telemetry exporter is
    installed (:func:`repro.obs.get_exporter`), every pool job also
    ships one end-of-job resource sample back for the exporter's
    per-worker ``resources.jsonl`` time series.
    """

    def __init__(self, jobs=1, faults=None):
        jobs = int(jobs)
        if jobs < 1:
            raise ValueError("jobs must be >= 1, got %d" % jobs)
        self.jobs = jobs
        self.faults = faults if faults is not None else FaultPolicy()

    def map(self, func, payloads, on_outcome=None, stop=None):
        """Apply ``func`` to every payload; returns outcomes in
        *payload order* (completion order never leaks: the pool path
        reassembles by payload index).

        ``func`` must be a module-level function taking one picklable
        payload and returning a picklable result (the ``jobs=1`` path
        does not require picklability, but relying on that forfeits the
        bit-identicality guarantee).  Under ``on_error="collect"``,
        failed payloads yield :class:`JobFailure` entries in their
        slots; under ``"raise"`` the first failure propagates.

        ``on_outcome(index, outcome)``, when given, is called in the
        parent as each slot *resolves* — a successful result or a
        collected :class:`JobFailure` — which is the checkpoint hook
        the measurement service journals from: by the time the call
        returns the outcome is durable, whatever happens to the rest
        of the batch.  It fires in resolution order, not payload order.

        ``stop()``, when given, is polled between dispatches; once it
        returns true no *new* payload is launched, and a queued pool job
        that no worker has taken yet is cancelled; every other
        submitted job drains normally, its outcome passed to
        ``on_outcome``.  Unlaunched and cancelled slots keep the
        :data:`PENDING` sentinel in the returned list, so a draining
        caller can tell "never ran" from "ran and failed".
        """
        payloads = list(payloads)
        metrics = obs.get_metrics()
        tracer = obs.get_tracer()
        serial = self.jobs == 1 or len(payloads) <= 1
        workers = 1 if serial else min(self.jobs, len(payloads))
        stats = _MapStats()
        map_span = tracer.span("batch.map", jobs=len(payloads),
                               workers=workers)
        with map_span:
            if serial:
                outcomes = self._serial_map(func, payloads, tracer, stats,
                                            on_outcome, stop)
            else:
                outcomes = self._pool_map(func, payloads, workers, metrics,
                                          tracer, map_span, stats,
                                          on_outcome, stop)
        if metrics.enabled and payloads:
            metrics.incr("batch.jobs", len(payloads))
            metrics.gauge("batch.workers", workers)
            metrics.add_seconds("batch.worker_seconds", sum(stats.walls))
            for wall in stats.walls:
                metrics.observe("batch.job_seconds", wall)
            metrics.incr("batch.failures", stats.failed)
            metrics.incr("batch.retries", stats.retries)
            metrics.incr("batch.timeouts", stats.timeouts)
            metrics.incr("batch.pool_restarts", stats.restarts)
            metrics.incr("batch.quarantined", stats.quarantined)
        return outcomes

    # ------------------------------------------------------------------
    # In-process path (jobs=1): same policy surface, no pool

    def _serial_map(self, func, payloads, tracer, stats, on_outcome=None,
                    stop=None):
        faults = self.faults
        event_log = obs.get_event_log()
        outcomes = [PENDING] * len(payloads)

        def resolve(index, outcome):
            outcomes[index] = outcome
            if on_outcome is not None:
                on_outcome(index, outcome)

        for index, payload in enumerate(payloads):
            if stop is not None and stop():
                break
            strikes = 0
            while True:
                attempts = strikes + 1
                t0 = time.perf_counter()
                span = tracer.span("batch.job", index=index)
                with span:
                    try:
                        result = func(payload)
                    except Exception as error:
                        wall = time.perf_counter() - t0
                        span.set(error=True,
                                 error_type=type(error).__name__)
                        stats.walls.append(wall)
                        if not faults.collecting:
                            raise
                        failure = JobFailure.from_exception(index, error,
                                                            seconds=wall)
                        failure.attempts = attempts
                        event_log.event("batch.failure", index=index,
                                        error_type=failure.error_type,
                                        transient=False,
                                        quarantined=False,
                                        attempts=attempts)
                        resolve(index, failure)
                        stats.failed += 1
                        break
                    wall = time.perf_counter() - t0
                    stats.walls.append(wall)
                    if faults.timeout is not None and wall > faults.timeout:
                        # In-process a running job cannot be preempted;
                        # the attempt is classified as timed out after
                        # the fact, with the same strike accounting as
                        # the pool path.
                        span.set(error=True, error_type="JobTimeout")
                        stats.timeouts += 1
                        event_log.event("batch.timeout", index=index,
                                        timeout=faults.timeout)
                        strikes += 1
                        if strikes <= faults.retries:
                            stats.retries += 1
                            event_log.event("batch.retry", index=index,
                                            strikes=strikes,
                                            error_type="JobTimeout")
                            time.sleep(faults.backoff * (2 ** (strikes - 1)))
                            continue
                        stats.quarantined += 1
                        event_log.event("batch.quarantine", index=index,
                                        attempts=attempts,
                                        error_type="JobTimeout")
                        timeout = JobTimeout(
                            "job %d exceeded its %.3fs timeout "
                            "(ran %.3fs)" % (index, faults.timeout, wall),
                            index=index, seconds=wall)
                        if not faults.collecting:
                            raise timeout
                        failure = JobFailure.from_exception(
                            index, timeout, seconds=wall, transient=True,
                            quarantined=True, with_traceback=False)
                        failure.attempts = attempts
                        event_log.event("batch.failure", index=index,
                                        error_type="JobTimeout",
                                        transient=True, quarantined=True,
                                        attempts=attempts)
                        resolve(index, failure)
                        stats.failed += 1
                        break
                    resolve(index, result)
                    break
        return outcomes

    # ------------------------------------------------------------------
    # Pool path (jobs=N): submit + completion waits, bounded retries

    def _pool_map(self, func, payloads, workers, metrics, tracer, map_span,
                  stats, on_outcome=None, stop=None):
        import concurrent.futures
        from concurrent.futures.process import BrokenProcessPool
        faults = self.faults
        capture = metrics.enabled
        capture_trace = tracer.enabled
        event_log = obs.get_event_log()
        capture_events = event_log.enabled
        exporter = obs.get_exporter()
        capture_resources = exporter is not None
        count = len(payloads)
        outcomes = [_PENDING] * count
        attempts = [0] * count
        strikes = [0] * count
        pending = collections.deque(range(count))
        suspects = collections.deque()  # re-run alone after a break
        pool = None
        futures = {}            # future -> payload index
        # The pool hands calls to workers in submission order, so the
        # oldest ``workers`` unresolved futures are the *started* ones,
        # each with a deadline; the rest are *queued* behind them.
        deadlines = {}          # started future -> monotonic deadline/None
        queued = collections.deque()  # queued futures, oldest first

        def start(future):
            deadlines[future] = (time.monotonic() + faults.timeout
                                 if faults.timeout is not None else None)

        def forget(future):
            """Drop a resolved future from the books; its payload index."""
            if future in deadlines:
                del deadlines[future]
            else:
                queued.remove(future)
            return futures.pop(future)

        def requeue_queued():
            """Put the queued jobs of a pool being torn down back at the
            front of ``pending``, their attempt undone: they never ran
            (or, taken a moment before a sibling resolved, run again as
            started jobs), so they take no strike."""
            indices = [futures.pop(future) for future in queued]
            queued.clear()
            for index in reversed(indices):
                attempts[index] -= 1
                pending.appendleft(index)

        def absorb(index, ok, value, snapshot, spans, events, rsample,
                   wall):
            """Fold one completed attempt (success or job failure)."""
            stats.walls.append(wall)
            if snapshot is not None:
                metrics.merge(snapshot)
            if spans:
                tracer.adopt(spans, parent_id=map_span.span_id)
            if events:
                event_log.adopt(events)
            if rsample is not None and exporter is not None:
                exporter.absorb_worker(rsample)
            if ok:
                outcomes[index] = value
                if on_outcome is not None:
                    on_outcome(index, value)
                return
            value.attempts = attempts[index]
            value.metrics = snapshot
            value.spans = spans
            if not faults.collecting:
                value.raise_()
            event_log.event("batch.failure", index=index,
                            error_type=value.error_type,
                            transient=value.transient,
                            quarantined=value.quarantined,
                            attempts=value.attempts)
            outcomes[index] = value
            stats.failed += 1
            if on_outcome is not None:
                on_outcome(index, value)

        def retry(index, error, queue):
            stats.retries += 1
            event_log.event("batch.retry", index=index,
                            strikes=strikes[index],
                            error_type=type(error).__name__)
            queue.append(index)

        def strike(index, error, seconds=None, queue=pending):
            """One transient strike; retry or quarantine the job."""
            strikes[index] += 1
            if strikes[index] <= faults.retries:
                retry(index, error, queue)
                return strikes[index]
            stats.quarantined += 1
            event_log.event("batch.quarantine", index=index,
                            attempts=attempts[index],
                            error_type=type(error).__name__)
            failure = JobFailure.from_exception(
                index, error, seconds=seconds, transient=True,
                quarantined=True, with_traceback=False)
            failure.attempts = attempts[index]
            if not faults.collecting:
                failure.raise_()
            event_log.event("batch.failure", index=index,
                            error_type=failure.error_type,
                            transient=True, quarantined=True,
                            attempts=failure.attempts)
            outcomes[index] = failure
            stats.failed += 1
            if on_outcome is not None:
                on_outcome(index, failure)
            return 0

        def resurrect(backoff_strike):
            stats.restarts += 1
            event_log.event("batch.pool_restart", restarts=stats.restarts)
            if backoff_strike > 0:
                time.sleep(faults.backoff * (2 ** (backoff_strike - 1)))

        try:
            while pending or suspects or futures:
                if (stop is not None and (pending or suspects or queued)
                        and stop()):
                    # Drain: drop unlaunched payloads and cancel the
                    # queued jobs no worker has taken (their slots stay
                    # PENDING); every other job finishes normally.
                    pending.clear()
                    suspects.clear()
                    for future in list(queued):
                        if future.cancel():
                            queued.remove(future)
                            del futures[future]
                    if not futures:
                        break
                if pool is None:
                    pool = _lease_pool(workers)
                # Keep each worker busy with one job queued behind it, so
                # a worker that finishes takes its next job without a
                # round trip through this thread.  A suspect runs with
                # nothing beside it.
                while (pending or suspects) and len(futures) < 2 * workers:
                    alone = bool(suspects)
                    if alone and futures:
                        break
                    queue = suspects if alone else pending
                    index = queue.popleft()
                    attempts[index] += 1
                    try:
                        future = pool.submit(
                            _call_job,
                            (func, payloads[index], index, capture,
                             capture_trace, capture_events,
                             capture_resources))
                    except BrokenProcessPool:
                        # The pool died between submissions.  Requeue
                        # this job un-attempted; in-flight futures (if
                        # any) surface the breakage below, otherwise
                        # resurrect right away.
                        attempts[index] -= 1
                        queue.appendleft(index)
                        if not futures:
                            _terminate_pool(pool)
                            pool = None
                            stats.restarts += 1
                            event_log.event("batch.pool_restart",
                                            restarts=stats.restarts)
                        break
                    futures[future] = index
                    if len(deadlines) < workers:
                        start(future)
                    else:
                        queued.append(future)
                    if alone:
                        break
                if not futures:
                    continue
                timeout = None
                live = [d for d in deadlines.values() if d is not None]
                if live:
                    timeout = max(0.0, min(live) - time.monotonic())
                done, _ = concurrent.futures.wait(
                    list(futures), timeout=timeout,
                    return_when=concurrent.futures.FIRST_COMPLETED)
                now = time.monotonic()
                expired = [future for future, deadline in deadlines.items()
                           if deadline is not None and now >= deadline
                           and not future.done()]
                broken = None
                for future in done:
                    try:
                        (ok, value, snapshot, spans, events, rsample,
                         wall) = future.result()
                    except BrokenProcessPool as error:
                        # The whole pool is dead; every sibling future
                        # breaks too.  Handled below in one sweep.
                        broken = error
                    except Exception as error:
                        # Pickling/transport failure between parent and
                        # worker: transient per policy.
                        strike(forget(future), error)
                    else:
                        absorb(forget(future), ok, value, snapshot, spans,
                               events, rsample, wall)
                if broken is not None:
                    # Every started job still in flight was a
                    # (potential) offender.  Tear the dead pool down
                    # first, so a strike that raises in "raise" mode
                    # never leaves the finally clause waiting on a dead
                    # pool.
                    in_flight = sorted(futures[f] for f in deadlines)
                    requeue_queued()
                    futures.clear()
                    deadlines.clear()
                    _terminate_pool(pool)
                    pool = None
                    worst = 0
                    if len(in_flight) > 1 and faults.retries:
                        # Bystanders cannot be told from the offender:
                        # re-run each alone, without a strike.
                        for index in in_flight:
                            retry(index, broken, suspects)
                    else:
                        # A job that broke the pool on its own (or no
                        # retry budget to find out) is struck; a retry
                        # runs alone again.
                        for index in in_flight:
                            worst = max(worst, strike(index, broken,
                                                      queue=suspects))
                    resurrect(worst)
                    continue
                if expired:
                    # A worker is hung past its deadline.  Harvest any
                    # sibling results that finished in the window, then
                    # kill the pool: terminating the worker process is
                    # the only way to reclaim it.
                    victims = []
                    timed_out = []
                    for future in list(futures):
                        if future in expired:
                            timed_out.append(forget(future))
                        elif future.done():
                            try:
                                (ok, value, snapshot, spans, events,
                                 rsample, wall) = future.result()
                            except Exception as error:
                                strike(forget(future), error)
                            else:
                                absorb(forget(future), ok, value, snapshot,
                                       spans, events, rsample, wall)
                        elif future in deadlines:
                            victims.append(forget(future))
                    requeue_queued()
                    futures.clear()
                    deadlines.clear()
                    _terminate_pool(pool)
                    pool = None
                    worst = 0
                    for index in timed_out:
                        stats.timeouts += 1
                        event_log.event("batch.timeout", index=index,
                                        timeout=faults.timeout)
                        worst = max(worst, strike(index, JobTimeout(
                            "job %d exceeded its %.3fs timeout"
                            % (index, faults.timeout), index=index,
                            seconds=faults.timeout)))
                    # Collateral victims were not at fault: re-run them
                    # without a strike, ahead of struck retries.  (A
                    # victim may have completed between the harvest and
                    # the kill; re-running a pure job is safe, and its
                    # unharvested snapshot is never merged, so nothing
                    # is double-counted.)
                    for index in sorted(victims, reverse=True):
                        pending.appendleft(index)
                    resurrect(worst)
                    continue
                # A worker freed by a resolved job has taken the oldest
                # queued one: its running time starts now.
                while queued and len(deadlines) < workers:
                    start(queued.popleft())
        except BaseException:
            # Abort path (a raised failure, KeyboardInterrupt, a drain
            # signal): never wait on a possibly-hung worker — kill the
            # pool outright before propagating.
            if pool is not None:
                _terminate_pool(pool)
                pool = None
            raise
        if pool is not None:
            # Every future resolved: the pool is idle and whole.
            _return_pool(pool, workers)
        return outcomes


class _Pending:
    """Placeholder for a not-yet-resolved outcome slot."""

    __slots__ = ()

    def __repr__(self):
        return "<pending job>"


#: Sentinel left in an outcome slot whose payload was never launched,
#: or was cancelled while queued (a ``stop()`` drain fired first).
#: Callers that pass ``stop=`` must treat these slots as "not
#: attempted", never as results.
PENDING = _Pending()

# Backwards-compatible private alias (pre-drain-support name).
_PENDING = PENDING
