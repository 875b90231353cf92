"""Admission control and backpressure for the measurement service.

A measurement job is expensive (instrumented execution is orders of
magnitude slower than uninstrumented), so the worst thing the daemon can do
under load is accept work it cannot drain: queue latency grows without
bound and every tenant's jobs get slower together.  The controller
instead answers ``POST /v1/jobs`` with an explicit refusal — HTTP 429
plus a ``Retry-After`` hint — the moment any of its limits trips:

* **bounded queue depth** — at most ``queue_depth`` accepted-but-not-
  running jobs; beyond it every submission is refused (backpressure);
* **per-tenant inflight cap** — at most ``tenant_inflight`` live
  (queued + running) jobs per tenant, so one chatty tenant cannot
  starve the rest;
* **load shedding** — once the queue is hot (``shed_fraction`` of
  capacity), *large* jobs (``runs > shed_runs``) are refused even
  though small ones still fit: cheap probes keep flowing while bulk
  work waits for calm;
* **drain** — a draining daemon admits nothing (HTTP 503, so clients
  distinguish "overloaded, retry here" from "going away, go
  elsewhere").

``Retry-After`` is an estimate, not a promise: an exponentially
weighted moving average of recent job durations times the queue depth
ahead of the would-be submission, clamped to a sane range.
"""

from __future__ import annotations

import threading

#: Decision reasons, also returned in the JSON error body.
REASONS = ("queue_full", "tenant_cap", "load_shed", "draining")


class Decision:
    """One admission verdict: admit, or refuse with status + hint."""

    __slots__ = ("admitted", "status", "reason", "retry_after")

    def __init__(self, admitted, status=202, reason=None, retry_after=None):
        self.admitted = admitted
        self.status = status
        self.reason = reason
        self.retry_after = retry_after

    def __repr__(self):
        if self.admitted:
            return "Decision(admitted)"
        return "Decision(%d %s, retry_after=%s)" % (
            self.status, self.reason, self.retry_after)


class AdmissionController:
    """Stateless limits plus a little learned state (the EWMA).

    Args:
        queue_depth: maximum accepted-but-not-running jobs.
        tenant_inflight: maximum live (queued + running) jobs per
            tenant.
        shed_runs: with the queue hot, submissions asking for more
            than this many runs are shed.
        shed_fraction: the queue is "hot" at this fraction of
            ``queue_depth`` (rounded down, at least 1).
        ewma_alpha: weight of the newest job duration in the
            ``Retry-After`` estimate.
    """

    def __init__(self, queue_depth=16, tenant_inflight=4, shed_runs=64,
                 shed_fraction=0.75, ewma_alpha=0.3):
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1, got %d"
                             % queue_depth)
        if tenant_inflight < 1:
            raise ValueError("tenant_inflight must be >= 1, got %d"
                             % tenant_inflight)
        if shed_runs < 1:
            raise ValueError("shed_runs must be >= 1, got %d" % shed_runs)
        if not 0.0 < shed_fraction <= 1.0:
            raise ValueError("shed_fraction must be in (0, 1], got %r"
                             % (shed_fraction,))
        self.queue_depth = int(queue_depth)
        self.tenant_inflight = int(tenant_inflight)
        self.shed_runs = int(shed_runs)
        self.shed_threshold = max(1, int(queue_depth * shed_fraction))
        self._alpha = float(ewma_alpha)
        self._ewma_seconds = None
        self._lock = threading.Lock()

    def observe_job_seconds(self, seconds):
        """Feed one finished job's wall time into the EWMA."""
        seconds = float(seconds)
        with self._lock:
            if self._ewma_seconds is None:
                self._ewma_seconds = seconds
            else:
                self._ewma_seconds += self._alpha * (seconds
                                                     - self._ewma_seconds)

    @property
    def ewma_seconds(self):
        with self._lock:
            return self._ewma_seconds

    def retry_after(self, depth):
        """Whole seconds a refused client should wait, in [1, 300]."""
        with self._lock:
            per_job = self._ewma_seconds
        if per_job is None:
            per_job = 1.0
        estimate = per_job * max(1, depth)
        return max(1, min(300, int(estimate + 0.999)))

    def decide(self, runs, depth, tenant_inflight, draining=False):
        """Judge one submission against the current queue state.

        Args:
            runs: how many runs the submission asks for.
            depth: current accepted-but-not-running queue depth.
            tenant_inflight: the submitting tenant's live job count.
            draining: whether the daemon is shutting down.
        """
        if draining:
            return Decision(False, status=503, reason="draining",
                            retry_after=self.retry_after(depth))
        if depth >= self.queue_depth:
            return Decision(False, status=429, reason="queue_full",
                            retry_after=self.retry_after(depth))
        if tenant_inflight >= self.tenant_inflight:
            return Decision(False, status=429, reason="tenant_cap",
                            retry_after=self.retry_after(tenant_inflight))
        if depth >= self.shed_threshold and runs > self.shed_runs:
            return Decision(False, status=429, reason="load_shed",
                            retry_after=self.retry_after(depth))
        return Decision(True)

    def limits(self):
        """The configured limits, for ``/v1/queue`` and the docs."""
        return {"queue_depth": self.queue_depth,
                "tenant_inflight": self.tenant_inflight,
                "shed_runs": self.shed_runs,
                "shed_threshold": self.shed_threshold,
                "ewma_seconds": self.ewma_seconds}
