"""Crash-safe persistent job queue — the ``queue-v1`` journal.

The measurement service's durability contract is simple to state: once
a submission has been answered with HTTP 202, a ``kill -9`` of the
daemon at *any* later point loses nothing.  The mechanism is an
append-only journal of JSON records under the state directory::

    queue.journal       one JSON object per line, append-only

Record kinds (``rec`` field):

* ``header`` — written when the journal is created; carries the
  ``queue-v1`` format marker.
* ``submit`` — one accepted job: its id, tenant, and full spec.
  Flushed **and fsynced before the 202 goes out**, so an acknowledged
  submission is durable by construction.
* ``ack`` — the job's single atomic acknowledge: a terminal state
  (``done`` / ``partial`` / ``failed`` / ``cancelled``) plus a summary.
  Also fsynced; a job is complete exactly when its ack record is.
* ``cancel`` — a cancel *request* (informational; the matching ack
  with state ``cancelled`` is what retires the job).

Replay (on every open) folds the journal into a consistent state:

* a torn final line — the one partial write a crash can leave, since
  every record is one flushed ``write()`` of a
  :class:`~repro.durable.LineLog` — is ignored silently, and the next
  append truncates it; malformed whole lines are dropped with a counter;
* ``ack`` for an unknown id and duplicate records are tolerated
  (last writer wins), so replaying any *prefix* of a journal yields a
  consistent state: no accepted job lost, no job double-completed —
  the property test in ``tests/serve/test_queue.py`` holds the line;
* every submitted-but-unacked job comes back ``queued``, in original
  submit order (the ``serve.replayed`` metric counts them).  Whether
  such a job had already started does not matter: per-job progress
  lives in its own journal (see :mod:`repro.serve.daemon`), so a
  replayed job resumes from its completed runs rather than repeating
  them.

The queue object itself is thread-safe (one lock); the HTTP frontend
submits and cancels from handler threads while the dispatcher thread
claims and acknowledges.
"""

from __future__ import annotations

import json
import os
import threading
import time

from .. import obs
from ..durable import LineLog, read_lines
from ..errors import ServeError

#: The journal format marker written to (and required of) the header.
QUEUE_FORMAT = "queue-v1"

#: Terminal states an ``ack`` record may carry.
ACK_STATES = ("done", "partial", "failed", "cancelled")

_JOURNAL = "queue.journal"


class JobRecord:
    """One job's live view: journaled facts plus in-memory status.

    ``state`` is one of ``queued`` / ``running`` / the terminal
    :data:`ACK_STATES`.  ``running`` is in-memory only — a crash
    while running replays as ``queued`` and the job resumes from its
    checkpoints.
    """

    __slots__ = ("id", "ts", "tenant", "spec", "state", "summary",
                 "cancel_requested", "replayed")

    def __init__(self, job_id, ts, tenant, spec):
        self.id = job_id
        self.ts = ts
        self.tenant = tenant
        self.spec = spec
        self.state = "queued"
        self.summary = None
        self.cancel_requested = False
        self.replayed = False

    @property
    def terminal(self):
        return self.state in ACK_STATES

    def to_dict(self, spec=False):
        doc = {"id": self.id, "ts": self.ts, "tenant": self.tenant,
               "state": self.state,
               "cancel_requested": self.cancel_requested}
        if self.summary is not None:
            doc["summary"] = self.summary
        if spec:
            doc["spec"] = self.spec
        return doc

    def __repr__(self):
        return "JobRecord(%r, %s)" % (self.id, self.state)


def replay_journal(path):
    """Fold a ``queue-v1`` journal file into ``(jobs, skipped)``.

    ``jobs`` is an id-ordered-by-submission dict of
    :class:`JobRecord`; ``skipped`` counts dropped lines (a torn final
    line is ignored *without* counting — it is the expected crash
    artifact, not damage).  Pure function of the file contents, which
    is what the prefix-truncation property test exercises directly.
    """
    jobs = {}
    skipped = 0
    for line in read_lines(path)[0]:
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError("not an object")
        except (ValueError, UnicodeDecodeError):
            skipped += 1
            continue
        kind = record.get("rec")
        if kind == "header":
            continue
        job_id = record.get("id")
        if not isinstance(job_id, str) or not job_id:
            skipped += 1
            continue
        if kind == "submit":
            spec = record.get("spec")
            if not isinstance(spec, dict):
                skipped += 1
                continue
            jobs[job_id] = JobRecord(job_id, record.get("ts"),
                                     record.get("tenant") or "default",
                                     spec)
        elif kind == "ack":
            job = jobs.get(job_id)
            state = record.get("state")
            if job is None or state not in ACK_STATES:
                skipped += 1
                continue
            job.state = state
            job.summary = record.get("summary")
        elif kind == "cancel":
            job = jobs.get(job_id)
            if job is None:
                skipped += 1
                continue
            if not job.terminal:
                job.cancel_requested = True
        else:
            skipped += 1
    return jobs, skipped


class JobQueue:
    """The durable queue over one state directory's ``queue.journal``.

    Opening replays the journal (creating it when absent); every
    unacknowledged job is re-enqueued in submit order, counted by the
    ``serve.replayed`` metric and narrated as ``queue.replay`` events.
    """

    def __init__(self, state_dir):
        self.state_dir = os.fspath(state_dir)
        os.makedirs(self.state_dir, exist_ok=True)
        self.path = os.path.join(self.state_dir, _JOURNAL)
        self._lock = threading.Lock()
        self._log = LineLog(self.path, fsync=True)
        self.skipped_lines = 0
        self.replayed = 0
        if os.path.exists(self.path):
            self.jobs, self.skipped_lines = replay_journal(self.path)
        else:
            self.jobs = {}
            self._write_record({"rec": "header", "format": QUEUE_FORMAT,
                                "ts": time.time()})
        metrics = obs.get_metrics()
        event_log = obs.get_event_log()
        for job in self.jobs.values():
            if not job.terminal:
                job.replayed = True
                self.replayed += 1
                event_log.event("queue.replay", id=job.id,
                                tenant=job.tenant)
        if metrics.enabled:
            if self.replayed:
                metrics.incr("serve.replayed", self.replayed)
            metrics.gauge("serve.queue_depth", self.depth())

    # ------------------------------------------------------------------
    # Journal writes

    def _write_record(self, record):
        """Append one record durably: single write, flush, fsync."""
        self._log.append(json.dumps(record, sort_keys=False) + "\n")

    def close(self):
        with self._lock:
            self._log.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    # ------------------------------------------------------------------
    # Queue operations

    def submit(self, spec, tenant="default", job_id=None):
        """Durably accept one job; returns its :class:`JobRecord`.

        When this returns, the submit record has been fsynced — the
        202 response the caller is about to send is backed by disk.
        """
        with self._lock:
            if job_id is None:
                job_id = "job-" + os.urandom(8).hex()
            if job_id in self.jobs:
                raise ServeError("duplicate job id %r" % job_id)
            record = JobRecord(job_id, time.time(), tenant, spec)
            self._write_record({"rec": "submit", "id": job_id,
                                "ts": record.ts, "tenant": tenant,
                                "spec": spec})
            self.jobs[job_id] = record
            depth = self._depth_locked()
        obs.get_event_log().event("queue.submit", id=job_id, tenant=tenant)
        metrics = obs.get_metrics()
        if metrics.enabled:
            metrics.gauge("serve.queue_depth", depth)
        return record

    def ack(self, job_id, state, summary=None):
        """Journal a job's terminal state (the atomic acknowledge)."""
        if state not in ACK_STATES:
            raise ValueError("ack state must be one of %r, got %r"
                             % (ACK_STATES, state))
        with self._lock:
            job = self.jobs[job_id]
            if job.terminal:
                raise ServeError("job %s is already %s"
                                 % (job_id, job.state))
            self._write_record({"rec": "ack", "id": job_id,
                                "ts": time.time(), "state": state,
                                "summary": summary})
            job.state = state
            job.summary = summary
            depth = self._depth_locked()
        obs.get_event_log().event("queue.ack", id=job_id, state=state)
        metrics = obs.get_metrics()
        if metrics.enabled:
            metrics.gauge("serve.queue_depth", depth)
        return job

    def request_cancel(self, job_id):
        """Journal a cancel request; returns the job, or ``None`` if
        it is already terminal (nothing to cancel)."""
        with self._lock:
            job = self.jobs[job_id]
            if job.terminal:
                return None
            self._write_record({"rec": "cancel", "id": job_id,
                                "ts": time.time()})
            job.cancel_requested = True
        obs.get_event_log().event("queue.cancel", id=job_id)
        return job

    def claim(self):
        """Pop the oldest queued job into ``running``; ``None`` when
        the queue is empty.  (In-memory transition only — a crash
        while running replays the job as queued.)"""
        with self._lock:
            for job in self.jobs.values():
                if job.state == "queued":
                    job.state = "running"
                    depth = self._depth_locked()
                    break
            else:
                return None
        metrics = obs.get_metrics()
        if metrics.enabled:
            metrics.gauge("serve.queue_depth", depth)
        return job

    def requeue(self, job_id):
        """Put a claimed-but-unfinished job back to ``queued`` (the
        drain path: its checkpoints stay, its ack never happened)."""
        with self._lock:
            job = self.jobs[job_id]
            if not job.terminal:
                job.state = "queued"
            depth = self._depth_locked()
        metrics = obs.get_metrics()
        if metrics.enabled:
            metrics.gauge("serve.queue_depth", depth)
        return job

    # ------------------------------------------------------------------
    # Views

    def get(self, job_id):
        with self._lock:
            return self.jobs.get(job_id)

    def _depth_locked(self):
        return sum(1 for job in self.jobs.values()
                   if job.state == "queued")

    def depth(self):
        """Jobs accepted but not yet running."""
        with self._lock:
            return self._depth_locked()

    def inflight(self, tenant=None):
        """Non-terminal jobs, optionally for one tenant."""
        with self._lock:
            return sum(1 for job in self.jobs.values()
                       if not job.terminal
                       and (tenant is None or job.tenant == tenant))

    def counts(self):
        """``{state: count}`` over every journaled job."""
        with self._lock:
            counts = {}
            for job in self.jobs.values():
                counts[job.state] = counts.get(job.state, 0) + 1
            return counts

    def snapshot(self):
        """Queue view for ``GET /v1/queue``."""
        with self._lock:
            queued = [job.id for job in self.jobs.values()
                      if job.state == "queued"]
            running = [job.id for job in self.jobs.values()
                       if job.state == "running"]
            quarantine = [job.id for job in self.jobs.values()
                          if job.state == "failed"]
            tenants = {}
            for job in self.jobs.values():
                if not job.terminal:
                    tenants[job.tenant] = tenants.get(job.tenant, 0) + 1
        return {"depth": len(queued), "queued": queued,
                "running": running, "quarantine": quarantine,
                "inflight_by_tenant": tenants,
                "replayed": self.replayed,
                "skipped_lines": self.skipped_lines}
