"""The measurement daemon: queue, dispatcher, checkpoints, drain.

:class:`MeasurementDaemon` is the long-running process behind
``repro serve``: an HTTP frontend (:mod:`repro.serve.api`) accepts
measurement jobs into the crash-safe queue (:mod:`repro.serve.queue`),
a dispatcher thread executes them one at a time over the existing
:class:`~repro.batch.engine.BatchEngine` pool, and every completed run
is checkpointed before the next one starts — so the daemon can die at
any instant and resume with nothing lost but the run in flight.

State directory layout::

    STATE_DIR/
      queue.journal          the queue-v1 journal (accepted jobs + acks)
      endpoint.json          {host, port, pid} of the live daemon
      telemetry/<gen>/       one telemetry-v1 directory per daemon
                             lifetime (counters reset with the process)
      jobs/<id>/
        store/               per-job ShardStore (blobs only, no manifest)
        progress.jsonl       one record per completed run (the commit
                             point: digest + bits on success, the
                             JobFailure dict on failure)
        result.json          the final report document (atomic write)

Durability argument, in order of the writes: a run's shard blob is
written first (content-addressed and idempotent — rewriting it on
resume is a no-op), then its ``progress.jsonl`` line is appended,
flushed, and fsynced through a :class:`~repro.durable.LineLog`.  A
record counts once its newline is on disk, and the first append after
a restart truncates a torn tail, so the progress line is the *only*
commit point: a crash before its newline re-executes the run (same
digest, nothing doubled), a crash after it resumes past the run (the
blob is already durable).  The live Kraft accountant behind
``anytime_bits`` is not checkpointed: on resume it is rebuilt from the
progress records and the stored shard metadata, and its bound
``min(Σ source, Σ sink)`` does not depend on admission order, so no
run is ever double-admitted into the §3 accounting.  Finishing a
job writes nothing but ``result.json`` and the ack: the final combine
(:func:`repro.batch.runs._combine`, the package's one multi-run
combine) folds the stored shards in run-index order and computes its
own anytime trail from the success set alone, which is why a
killed-and-resumed job's result — bounds and trail — is bit-identical
to an undisturbed one's, wherever the kill landed.

Graceful degradation: worker crashes ride the existing
``FaultPolicy(on_error="collect")`` path, so a job that loses runs
completes ``partial`` — the report carries the §3 caveat that the
bound covers only the surviving runs.  SIGTERM/SIGINT trigger a
drain: admission stops (503), the dispatcher finishes or checkpoints
the job in flight, unfinished jobs stay unacknowledged for the next
start to replay, telemetry flushes, and the process exits 0.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
import weakref

from .. import obs
from ..batch.engine import PENDING, BatchEngine, FaultPolicy, JobFailure
from ..batch.runs import BATCH_COLLAPSE_MODES, _combine, _trace_run_job
from ..core.combine import IncrementalKraft
from ..core.policy import CutPolicy
from ..durable import LineLog, atomic_write, read_lines
from ..errors import ServeError
from ..graph.flowgraph import INF
from ..shadow import BACKENDS, resolve_backend
from ..store import ShardStore
from .admission import AdmissionController
from .queue import JobQueue

_BACKEND_CHOICES = ("auto",) + BACKENDS
_MAX_RUNS = 4096

#: Daemons between :meth:`MeasurementDaemon.start` and ``stop``.
_serving = weakref.WeakSet()


def _release_in_child():
    """At-fork hook: a child forked while a daemon serves -- a batch
    pool worker, forked by the dispatcher in the middle of a job --
    gives back that daemon's descriptors.  Kept workers outlive the
    job, so without this they would pin its ``progress.jsonl`` (even
    once deleted), the queue journal, the shard pack and the listening
    socket until the pool retires."""
    for daemon in list(_serving):
        daemon._release_descriptors()


os.register_at_fork(after_in_child=_release_in_child)


def _finite(bits):
    """JSON rendering of a bound: ``None`` for unbounded."""
    if bits is None or bits >= INF:
        return None
    return bits


def validate_spec(spec):
    """Normalize one job spec into its canonical journaled form.

    Raises ``ValueError`` with a client-facing message on anything
    malformed (the API maps that to HTTP 400).  The canonical form is
    JSON-clean — secrets and the public input become hex — so the
    journal replays byte-identically.
    """
    if not isinstance(spec, dict):
        raise ValueError("job spec must be a JSON object")
    program = spec.get("program")
    if not isinstance(program, str) or not program.strip():
        raise ValueError("spec.program must be non-empty FlowLang source")
    secrets = []
    raw = spec.get("secrets", [])
    if not isinstance(raw, list):
        raise ValueError("spec.secrets must be a list of strings")
    for value in raw:
        if not isinstance(value, str):
            raise ValueError("spec.secrets must be a list of strings")
        secrets.append(value.encode("utf-8"))
    raw = spec.get("secrets_hex", [])
    if not isinstance(raw, list):
        raise ValueError("spec.secrets_hex must be a list of hex strings")
    for value in raw:
        try:
            secrets.append(bytes.fromhex(value))
        except (TypeError, ValueError):
            raise ValueError("spec.secrets_hex entries must be hex strings")
    if not secrets:
        raise ValueError("spec needs at least one secret "
                         "(secrets or secrets_hex)")
    if len(secrets) > _MAX_RUNS:
        raise ValueError("spec asks for %d runs; the service caps a "
                         "job at %d" % (len(secrets), _MAX_RUNS))
    public = spec.get("public", "")
    if not isinstance(public, str):
        raise ValueError("spec.public must be a string")
    public = public.encode("utf-8")
    if "public_hex" in spec:
        try:
            public = bytes.fromhex(spec["public_hex"])
        except (TypeError, ValueError):
            raise ValueError("spec.public_hex must be a hex string")
    collapse = spec.get("collapse", "context")
    if collapse not in BATCH_COLLAPSE_MODES:
        raise ValueError("spec.collapse must be one of %r"
                         % (BATCH_COLLAPSE_MODES,))
    backend = spec.get("backend")
    if backend is not None and backend not in _BACKEND_CHOICES:
        raise ValueError("spec.backend must be null or one of %r"
                         % (_BACKEND_CHOICES,))
    max_steps = spec.get("max_steps")
    if max_steps is not None:
        if not isinstance(max_steps, int) or max_steps < 1:
            raise ValueError("spec.max_steps must be a positive integer")
    deadline = spec.get("deadline")
    if deadline is not None:
        if not isinstance(deadline, (int, float)) or not deadline > 0:
            raise ValueError("spec.deadline must be positive seconds")
    tenant = spec.get("tenant", "default")
    if not isinstance(tenant, str) or not tenant:
        raise ValueError("spec.tenant must be a non-empty string")
    filename = spec.get("filename", "<job>")
    if not isinstance(filename, str) or not filename:
        raise ValueError("spec.filename must be a non-empty string")
    return {
        "program": program,
        "filename": filename,
        "secrets_hex": [secret.hex() for secret in secrets],
        "public_hex": public.hex(),
        "collapse": collapse,
        "backend": backend,
        "max_steps": max_steps,
        "deadline": deadline,
        "tenant": tenant,
    }


def load_progress(path):
    """Fold a job's ``progress.jsonl`` into ``{run_index: record}``.

    A torn final line (the expected crash artifact) is ignored; a
    duplicated run index keeps the last record.
    """
    completed = {}
    if not os.path.exists(path):
        return completed
    for line in read_lines(path)[0]:
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (ValueError, UnicodeDecodeError):
            continue
        run = record.get("run")
        if isinstance(run, int) and ("digest" in record
                                     or "error" in record):
            completed[run] = record
    return completed


class ServeConfig:
    """Everything ``repro serve`` is configured by."""

    __slots__ = ("state_dir", "host", "port", "jobs", "queue_depth",
                 "tenant_inflight", "shed_runs", "timeout", "retries",
                 "telemetry", "telemetry_interval")

    def __init__(self, state_dir, host="127.0.0.1", port=8675, jobs=1,
                 queue_depth=16, tenant_inflight=4, shed_runs=64,
                 timeout=None, retries=0, telemetry=True,
                 telemetry_interval=1.0):
        self.state_dir = os.fspath(state_dir)
        self.host = host
        self.port = int(port)
        self.jobs = int(jobs)
        self.queue_depth = int(queue_depth)
        self.tenant_inflight = int(tenant_inflight)
        self.shed_runs = int(shed_runs)
        self.timeout = timeout
        self.retries = int(retries)
        self.telemetry = telemetry
        self.telemetry_interval = float(telemetry_interval)


class MeasurementDaemon:
    """The service: one queue, one dispatcher, one HTTP frontend."""

    def __init__(self, config):
        self.config = config
        self.started_at = time.time()
        self._draining = threading.Event()
        self._shutdown = threading.Event()
        self._wake = threading.Event()
        self._live = {}
        self._live_lock = threading.Lock()
        self._server = None
        self._server_thread = None
        self._dispatcher = None
        self._exporter = None
        self._state_root = None
        self._listen_fd = None
        self._ledger = obs.Ledger()
        self.queue = JobQueue(config.state_dir)
        self.admission = AdmissionController(
            queue_depth=config.queue_depth,
            tenant_inflight=config.tenant_inflight,
            shed_runs=config.shed_runs)

    # ------------------------------------------------------------------
    # API surface (called from HTTP handler threads)

    @property
    def draining(self):
        return self._draining.is_set()

    def submit_job(self, spec, tenant=None):
        """Admission-check one submission; returns
        ``(decision, job_or_None, error_message_or_None)``."""
        try:
            canonical = validate_spec(spec)
        except ValueError as error:
            return None, None, str(error)
        if tenant:
            canonical["tenant"] = tenant
        tenant = canonical["tenant"]
        runs = len(canonical["secrets_hex"])
        decision = self.admission.decide(
            runs, self.queue.depth(), self.queue.inflight(tenant),
            draining=self.draining)
        metrics = obs.get_metrics()
        if not decision.admitted:
            if metrics.enabled:
                metrics.incr("serve.rejected")
            obs.get_event_log().event("queue.reject",
                                      reason=decision.reason,
                                      tenant=tenant, runs=runs)
            return decision, None, None
        job = self.queue.submit(canonical, tenant=tenant)
        if metrics.enabled:
            metrics.incr("serve.admitted")
        self._wake.set()
        return decision, job, None

    def cancel_job(self, job_id):
        """Journal a cancel request; returns the job or ``None``
        (unknown id raises ``KeyError`` to the handler's 404)."""
        job = self.queue.request_cancel(job_id)
        if job is not None:
            self._wake.set()
        return job

    def job_status(self, job_id):
        """The status document for ``GET /v1/jobs/<id>``."""
        job = self.queue.get(job_id)
        if job is None:
            return None
        doc = job.to_dict()
        doc["runs"] = len(job.spec.get("secrets_hex", []))
        with self._live_lock:
            live = self._live.get(job_id)
        if live is not None:
            doc.update(live)
        if job.state in ("done", "partial", "failed"):
            result_path = os.path.join(self._job_dir(job_id),
                                       "result.json")
            try:
                with open(result_path) as handle:
                    doc["result"] = json.load(handle)
            except (OSError, ValueError):
                pass
        return doc

    def queue_status(self):
        doc = self.queue.snapshot()
        doc["draining"] = self.draining
        doc["limits"] = self.admission.limits()
        doc["counts"] = self.queue.counts()
        return doc

    def health(self):
        return {"status": "draining" if self.draining else "ok",
                "pid": os.getpid(),
                "uptime_seconds": time.time() - self.started_at,
                "depth": self.queue.depth()}

    def metrics_text(self):
        """The ``/metrics`` OpenMetrics exposition (monotone per
        scrape, via the daemon's own ledger)."""
        published = self._ledger.publish(obs.get_metrics().snapshot())
        self._ledger.remember_gauges(published)
        return obs.render_openmetrics(published)

    # ------------------------------------------------------------------
    # Job execution (dispatcher thread)

    def _job_dir(self, job_id):
        return os.path.join(self.config.state_dir, "jobs", job_id)

    def _set_live(self, job_id, **fields):
        with self._live_lock:
            self._live.setdefault(job_id, {}).update(fields)

    def _clear_live(self, job_id):
        with self._live_lock:
            self._live.pop(job_id, None)

    def _load_kraft(self, completed, store):
        """The job's live Kraft accountant, rebuilt from the progress
        records and the stored shard metadata."""
        success = sorted(run for run, record in completed.items()
                         if "digest" in record)
        kraft = IncrementalKraft()
        for run in success:
            meta = store.meta(completed[run]["digest"])
            kraft.admit(meta["source_cap"], meta["sink_cap"])
        return kraft, success

    def _execute_job(self, job):
        config = self.config
        spec = job.spec
        try:
            canonical = validate_spec(spec)
        except ValueError as error:
            self.queue.ack(job.id, "failed",
                           {"error": {"error_type": "ValueError",
                                      "error": str(error)}})
            return
        secrets = [bytes.fromhex(h) for h in canonical["secrets_hex"]]
        public = bytes.fromhex(canonical["public_hex"])
        collapse = canonical["collapse"]
        backend = resolve_backend(canonical["backend"])
        runs_total = len(secrets)
        job_dir = self._job_dir(job.id)
        os.makedirs(job_dir, exist_ok=True)
        store = ShardStore(os.path.join(job_dir, "store"))
        progress_path = os.path.join(job_dir, "progress.jsonl")
        completed = load_progress(progress_path)
        kraft, success = self._load_kraft(completed, store)
        remaining = [i for i in range(runs_total) if i not in completed]
        self._set_live(job.id, runs_total=runs_total,
                       runs_done=len(completed),
                       runs_failed=len(completed) - len(success),
                       anytime_bits=_finite(kraft.bits)
                       if completed else None,
                       resumed=bool(completed) and job.replayed)
        t0 = time.monotonic()
        try:
            if remaining:
                self._run_remaining(job, canonical, secrets, public,
                                    collapse, backend, remaining, store,
                                    progress_path, completed, kraft)
            unresolved = [i for i in range(runs_total)
                          if i not in completed]
            if job.cancel_requested:
                self.queue.ack(job.id, "cancelled",
                               {"runs": runs_total,
                                "runs_done": len(completed)})
                return
            if unresolved:
                # Drain fired mid-job: checkpointed, unacknowledged —
                # the next start replays and resumes it.
                self.queue.requeue(job.id)
                metrics = obs.get_metrics()
                if metrics.enabled:
                    metrics.incr("serve.drained")
                return
            self._finalize_job(job, canonical, store, completed,
                               runs_total, time.monotonic() - t0)
        finally:
            store.close()
            self._clear_live(job.id)

    def _run_remaining(self, job, canonical, secrets, public, collapse,
                       backend, remaining, store, progress_path,
                       completed, kraft):
        payloads = [(canonical["program"], canonical["filename"],
                     secrets[i], public, collapse, "main",
                     canonical["max_steps"], canonical["deadline"],
                     backend)
                    for i in remaining]
        progress = LineLog(progress_path, fsync=True)

        def checkpoint(index, outcome):
            run = remaining[index]
            if isinstance(outcome, JobFailure):
                record = {"run": run,
                          "error": outcome.to_dict(traceback=False)}
            else:
                digest = store.put_object_text(outcome["graph"])
                meta = store.meta(digest)
                kraft.admit(meta["source_cap"], meta["sink_cap"])
                record = {"run": run, "digest": digest,
                          "bits": outcome["bits"],
                          "stats": outcome["stats"],
                          "warnings": outcome["warnings"]}
            progress.append(json.dumps(record, sort_keys=False) + "\n")
            completed[run] = record
            self._set_live(job.id, runs_done=len(completed),
                           runs_failed=sum("error" in rec
                                           for rec in completed.values()),
                           anytime_bits=_finite(kraft.bits))

        def stop():
            return self._draining.is_set() or job.cancel_requested

        try:
            engine = BatchEngine(
                self.config.jobs,
                faults=FaultPolicy(timeout=self.config.timeout,
                                   retries=self.config.retries,
                                   on_error="collect"))
            outcomes = engine.map(_trace_run_job, payloads,
                                  on_outcome=checkpoint, stop=stop)
            assert all(o is PENDING or remaining[i] in completed
                       for i, o in enumerate(outcomes))
        finally:
            progress.close()

    def _finalize_job(self, job, canonical, store, completed, runs_total,
                      seconds):
        success = sorted(run for run, record in completed.items()
                         if "digest" in record)
        failures = [dict(completed[run]["error"], run=run)
                    for run in sorted(completed)
                    if "error" in completed[run]]
        result_path = os.path.join(self._job_dir(job.id), "result.json")
        if not success:
            doc = {"id": job.id, "bits": None, "runs": runs_total,
                   "covered": 0, "partial": True, "per_run_bits": [],
                   "failures": failures, "warnings": [],
                   "seconds": seconds}
            atomic_write(result_path, json.dumps(doc) + "\n")
            self.queue.ack(job.id, "failed",
                           {"runs": runs_total, "covered": 0,
                            "error": failures[0] if failures else None})
            return
        warnings = []
        stats_list = []
        for run in success:
            warnings.extend(completed[run].get("warnings") or [])
            stats_list.append(completed[run].get("stats") or {})
        # The final combine and its anytime trail depend on the success
        # set alone, so a job resumed at any point reproduces them.
        refs = [(completed[run]["digest"], 1) for run in success]
        result = _combine(refs, store, canonical["collapse"] == "context",
                          stats_list=stats_list, warnings=warnings)
        bits = result.bits
        cut = CutPolicy.from_report(result.report)
        doc = {
            "id": job.id,
            "bits": _finite(bits),
            "runs": runs_total,
            "covered": len(success),
            "partial": bool(failures),
            "per_run_bits": [completed[run]["bits"] for run in success],
            "anytime": [_finite(b) for b in result.anytime],
            "failures": failures,
            "warnings": warnings,
            "cut": cut.to_dict(),
            "seconds": seconds,
        }
        atomic_write(result_path, json.dumps(doc) + "\n")
        self.admission.observe_job_seconds(seconds)
        state = "partial" if failures else "done"
        self.queue.ack(job.id, state,
                       {"bits": _finite(bits), "runs": runs_total,
                        "covered": len(success),
                        "partial": bool(failures)})

    def _dispatch_loop(self):
        while not self._draining.is_set():
            job = self.queue.claim()
            if job is None:
                self._wake.wait(0.2)
                self._wake.clear()
                continue
            try:
                self._execute_job(job)
            except Exception as error:  # noqa: BLE001 - daemon survives
                try:
                    self.queue.ack(
                        job.id, "failed",
                        {"error": {"error_type": type(error).__name__,
                                   "error": str(error)}})
                except Exception:
                    pass

    # ------------------------------------------------------------------
    # Lifecycle

    def _release_descriptors(self):
        """In a forked child: point every inherited descriptor on a path
        under the state directory, and the listening socket, at
        ``/dev/null``.  Pipes are left alone (the pool's queues are
        pipes), and so are stdin/stdout/stderr.  ``dup2`` rather than
        ``close`` keeps each number taken, so the daemon's file objects
        copied into the child can never close a descriptor the child
        opened later under the same number."""
        try:
            fds = [int(name) for name in os.listdir("/proc/self/fd")]
        except OSError:
            return  # no procfs: nothing to enumerate
        prefix = os.path.join(self._state_root, "")
        targets = []
        for fd in fds:
            if fd <= 2:
                continue
            if fd == self._listen_fd:
                targets.append(fd)
                continue
            try:
                path = os.readlink("/proc/self/fd/%d" % fd)
            except OSError:
                continue  # the listing's own descriptor, now closed
            if path == self._state_root or path.startswith(prefix):
                targets.append(fd)
        if targets:
            null = os.open(os.devnull, os.O_RDWR)
            for fd in targets:
                os.dup2(null, fd)
            os.close(null)

    def initiate_drain(self):
        """Stop admitting, checkpoint in flight, shut down (idempotent,
        signal-handler safe)."""
        self._draining.set()
        self._wake.set()
        self._shutdown.set()

    def _telemetry_generation_dir(self):
        """A fresh ``telemetry/<gen>`` directory for this process
        lifetime.  Telemetry counters are monotonic per process, so a
        restarted daemon must open a new stream rather than append a
        reset counter sequence to the previous one."""
        root = os.path.join(self.config.state_dir, "telemetry")
        os.makedirs(root, exist_ok=True)
        taken = [int(name) for name in os.listdir(root)
                 if name.isdigit()]
        return os.path.join(root, "%03d" % (max(taken, default=-1) + 1))

    def start(self):
        """Bind, start the frontend + dispatcher; returns the bound
        ``(host, port)``.  In-process callers pair this with
        :meth:`stop`; the CLI uses :meth:`run`."""
        from .api import make_server
        config = self.config
        if config.telemetry:
            obs.enable().enable_thread_safety()
            obs.enable_events()
            self._exporter = obs.TelemetryExporter(
                self._telemetry_generation_dir(),
                interval=config.telemetry_interval)
            obs.set_exporter(self._exporter)
            self._exporter.start()
        try:
            self._server = make_server(self, config.host, config.port)
        except OSError as error:
            raise ServeError("cannot bind %s:%d: %s"
                             % (config.host, config.port, error))
        host, port = self._server.server_address[:2]
        self._state_root = os.path.realpath(config.state_dir)
        self._listen_fd = self._server.fileno()
        _serving.add(self)
        atomic_write(os.path.join(config.state_dir, "endpoint.json"),
                     json.dumps({"host": host, "port": port,
                                 "pid": os.getpid()}) + "\n")
        self._server_thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-serve-http", daemon=True)
        self._server_thread.start()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatch",
            daemon=True)
        self._dispatcher.start()
        return host, port

    def stop(self):
        """Drain and tear down; returns 0 (the drain exit code)."""
        self.initiate_drain()
        _serving.discard(self)
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._dispatcher is not None:
            self._dispatcher.join()
            self._dispatcher = None
        self.queue.close()
        if self._exporter is not None:
            obs.set_exporter(None)
            self._exporter.stop()
            self._exporter = None
            obs.disable_events()
            obs.disable()
        try:
            os.unlink(os.path.join(self.config.state_dir,
                                   "endpoint.json"))
        except OSError:
            pass
        return 0

    def run(self):
        """Serve until SIGTERM/SIGINT, then drain; returns the exit
        code (0 after a clean drain)."""
        if threading.current_thread() is threading.main_thread():
            signal.signal(signal.SIGTERM,
                          lambda signum, frame: self.initiate_drain())
            signal.signal(signal.SIGINT,
                          lambda signum, frame: self.initiate_drain())
        host, port = self.start()
        print("repro serve: listening on http://%s:%d (state: %s)"
              % (host, port, self.config.state_dir), flush=True)
        try:
            self._shutdown.wait()
        finally:
            self.stop()
        print("repro serve: drained cleanly", flush=True)
        return 0
