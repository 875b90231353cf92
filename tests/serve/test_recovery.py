"""Crash-safety integration: kill -9 the daemon, restart, lose nothing.

These tests drive the real ``repro serve`` subprocess over HTTP, kill
it without ceremony, and assert the durability contract: accepted jobs
survive, half-finished jobs resume from their checkpointed runs, and
the resumed job's final bounds are bit-identical to an uninterrupted
run's.  The CLI signal contract (130/143 with flushed sinks) rides in
the same file since it shares the subprocess machinery.
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from repro.serve import (JobQueue, MeasurementDaemon, ServeConfig,
                         load_progress, validate_spec)

#: 80k VM steps per run: about 17 ms per run in a batch under the fast
#: backend and 80 ms under the reference one (2-vCPU Linux VM).
SLOW_PROGRAM = """
fn main() {
    var buf: u8[8];
    var n: u32 = read_secret(buf, 8);
    var i: u32 = 0;
    var acc: u8 = 0;
    while (i < 10000) {
        acc = acc ^ buf[i & 7];
        i = i + 1;
    }
    output(acc);
}
"""

#: Enough runs that a job signalled or killed once its first
#: checkpoints land is still mid-job, however the polling falls.
SECRETS = ["run%04d" % i for i in range(40)]


def _env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    return env


def start_daemon(state_dir, extra=()):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--dir", str(state_dir),
         "--port", "0", "--no-telemetry", *extra],
        env=_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    endpoint = os.path.join(str(state_dir), "endpoint.json")
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if os.path.exists(endpoint):
            try:
                with open(endpoint) as handle:
                    doc = json.load(handle)
                if doc.get("pid") == proc.pid:
                    return proc, "http://%s:%d" % (doc["host"],
                                                  doc["port"])
            except (ValueError, KeyError):
                pass
        if proc.poll() is not None:
            raise AssertionError("daemon died at startup:\n"
                                 + proc.stdout.read())
        time.sleep(0.05)
    proc.kill()
    raise AssertionError("daemon never wrote endpoint.json")


def request(base, method, path, body=None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(base + path, method=method, data=data)
    try:
        with urllib.request.urlopen(req, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def wait_terminal(base, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, doc = request(base, "GET", "/v1/jobs/" + job_id)
        if doc["state"] in ("done", "partial", "failed", "cancelled"):
            return doc
        time.sleep(0.1)
    raise AssertionError("job %s never finished" % job_id)


def wait_checkpoints(state_dir, job_id, count, timeout=60.0):
    """Wait until the job has ``count`` checkpointed runs; returns the
    path of its progress file."""
    progress = os.path.join(str(state_dir), "jobs", job_id,
                            "progress.jsonl")
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if os.path.exists(progress):
            with open(progress) as handle:
                if len(handle.read().splitlines()) >= count:
                    return progress
        time.sleep(0.02)
    raise AssertionError("job %s never checkpointed %d runs"
                         % (job_id, count))


def scrub(result):
    """A result document minus its run-dependent fields."""
    doc = dict(result)
    doc.pop("id", None)
    doc.pop("seconds", None)
    return doc


@pytest.mark.slow
class TestKillNine:
    def test_kill9_midjob_resumes_bit_identical(self, tmp_path):
        spec = {"program": SLOW_PROGRAM, "secrets": SECRETS}
        # Reference: the same job, undisturbed.
        ref_dir = tmp_path / "reference"
        proc, base = start_daemon(ref_dir)
        try:
            _, doc = request(base, "POST", "/v1/jobs", spec)
            reference = wait_terminal(base, doc["id"])["result"]
        finally:
            proc.terminate()
            proc.wait(timeout=30)
        assert reference["covered"] == len(SECRETS)

        # Victim: killed without ceremony mid-job.
        state = tmp_path / "victim"
        proc, base = start_daemon(state)
        _, doc = request(base, "POST", "/v1/jobs", spec)
        job_id = doc["id"]
        progress = wait_checkpoints(state, job_id, 2)
        proc.kill()  # SIGKILL: no drain, no flush, no goodbye
        proc.wait(timeout=30)
        with open(progress) as handle:
            checkpointed = len(handle.read().splitlines())
        assert 0 < checkpointed < len(SECRETS)

        # Restart over the same state directory: the journal replays
        # the unacked job and the job resumes past its checkpoints.
        proc, base = start_daemon(state)
        try:
            _, queue_doc = request(base, "GET", "/v1/queue")
            assert queue_doc["replayed"] == 1
            final = wait_terminal(base, job_id)
            assert final["state"] == "done"
            # No run is re-measured or double-merged: exactly one
            # progress record per run.
            with open(progress) as handle:
                records = [json.loads(line)
                           for line in handle.read().splitlines()]
            assert sorted(r["run"] for r in records) == \
                list(range(len(SECRETS)))
            # The §3 contract: bit-identical to the uninterrupted run.
            assert scrub(final["result"]) == scrub(reference)
        finally:
            proc.terminate()
            proc.wait(timeout=30)

    def test_kill9_loses_no_accepted_job(self, tmp_path):
        state = tmp_path / "state"
        spec = {"program": SLOW_PROGRAM, "secrets": SECRETS[:2]}
        proc, base = start_daemon(state)
        ids = []
        for i in range(3):
            status, doc = request(base, "POST", "/v1/jobs",
                                  dict(spec, tenant="t%d" % i))
            assert status == 202
            ids.append(doc["id"])
        proc.kill()
        proc.wait(timeout=30)
        proc, base = start_daemon(state)
        try:
            for job_id in ids:
                status, doc = request(base, "GET",
                                      "/v1/jobs/" + job_id)
                assert status == 200, "accepted job %s lost" % job_id
            for job_id in ids:
                assert wait_terminal(base, job_id)["state"] == "done"
        finally:
            proc.terminate()
            proc.wait(timeout=30)

    def test_sigterm_drains_cleanly(self, tmp_path):
        state = tmp_path / "state"
        proc, base = start_daemon(state)
        status, doc = request(base, "POST", "/v1/jobs",
                              {"program": SLOW_PROGRAM,
                               "secrets": SECRETS})
        assert status == 202
        wait_checkpoints(state, doc["id"], 1)
        proc.terminate()
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0, out
        assert "drained cleanly" in out
        # The inflight job was checkpointed, not acked: it replays.
        proc, base = start_daemon(state)
        try:
            _, queue_doc = request(base, "GET", "/v1/queue")
            assert queue_doc["replayed"] == 1
            assert wait_terminal(base, doc["id"])["state"] == "done"
        finally:
            proc.terminate()
            proc.wait(timeout=30)


@pytest.mark.slow
class TestTornProgressTail:
    def test_checkpoint_after_torn_tail_survives(self, tmp_path):
        # A kill -9 mid-append leaves a torn progress line; the resumed
        # job's first checkpoint must land as a record of its own.
        spec = validate_spec({"program": SLOW_PROGRAM,
                              "secrets": SECRETS[:4]})
        with JobQueue(str(tmp_path)) as queue:
            queue.submit(spec, job_id="job-torn")
        progress = tmp_path / "jobs" / "job-torn" / "progress.jsonl"
        progress.parent.mkdir(parents=True)
        progress.write_text('{"run": 0, "dig')
        daemon = MeasurementDaemon(ServeConfig(tmp_path, port=0,
                                               telemetry=False))
        daemon.start()
        try:
            deadline = time.monotonic() + 60
            while daemon.job_status("job-torn")["state"] != "done":
                assert time.monotonic() < deadline, "job never finished"
                time.sleep(0.05)
        finally:
            daemon.stop()
        assert sorted(load_progress(str(progress))) == [0, 1, 2, 3]


class TestBatchSignals:
    """``repro batch`` exits 130/143 with flushed sinks, no traceback."""

    def _run_batch(self, tmp_path, signum):
        program = tmp_path / "slow.fl"
        program.write_text(SLOW_PROGRAM)
        telemetry = tmp_path / "telemetry"
        argv = [sys.executable, "-m", "repro", "batch", str(program),
                "--telemetry-dir", str(telemetry)]
        for secret in SECRETS * 4:
            argv += ["--secret", secret]
        proc = subprocess.Popen(argv, env=_env(),
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        # Wait for the run to be underway (telemetry dir appears),
        # then signal it.
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if os.path.isdir(str(telemetry)):
                break
            time.sleep(0.05)
        time.sleep(0.5)
        proc.send_signal(signum)
        out, err = proc.communicate(timeout=60)
        return proc.returncode, out, err, telemetry

    def test_sigint_exits_130_and_flushes(self, tmp_path):
        code, out, err, telemetry = self._run_batch(tmp_path,
                                                    signal.SIGINT)
        assert code == 130, err
        assert "SIGINT" in err
        assert "Traceback" not in err
        assert os.path.exists(str(telemetry / "metrics.prom"))

    def test_sigterm_exits_143_and_flushes(self, tmp_path):
        code, out, err, telemetry = self._run_batch(tmp_path,
                                                    signal.SIGTERM)
        assert code == 143, err
        assert "SIGTERM" in err
        assert "Traceback" not in err
        assert os.path.exists(str(telemetry / "metrics.prom"))
