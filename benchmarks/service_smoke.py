"""End-to-end smoke test of the measurement service (CI: service-smoke).

Drives a real ``repro serve`` subprocess through the robustness
contract of docs/service.md, asserting at each step:

1. jobs submit, run, and complete ``done`` with the right bounds;
2. a saturated queue answers 429 with a ``Retry-After`` hint;
3. a crashing job completes ``failed``; a hung job under the fault
   policy (``--timeout``) completes without wedging the service;
4. SIGKILLing a pool worker mid-job completes the job ``partial``
   (the §3 caveat: the bound covers the surviving runs);
5. SIGTERM drains gracefully: exit 0, zero lost acknowledged jobs —
   every job acked before the drain replays with the same terminal
   state after a restart;
6. the telemetry directory passes ``repro obs check``;
7. a job accepted after a restart over a torn ``queue.journal`` tail
   survives a SIGKILL of the daemon, then replays and finishes;
8. the warm pool workers of a ``--jobs 2`` daemon hold no descriptor
   on a path under its state directory or on its listening socket,
   and SIGKILLing that daemon leaves no worker alive after 5 s.

Usage::

    python benchmarks/service_smoke.py [STATE_DIR]

Exits non-zero on the first violated assertion.  Needs only the
stdlib, like the service itself.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

GOOD_PROGRAM = """
fn main() {
    var buf: u8[8];
    var n: u32 = read_secret(buf, 8);
    output(buf[0] & 3);
}
"""

#: ~180 ms per run: slow enough to SIGKILL a worker mid-job.
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

CRASHY_PROGRAM = """
fn main() {
    var buf: u8[4];
    var n: u32 = read_secret(buf, 4);
    var x: u32 = 4 / (n - n);
    output(buf[0]);
}
"""

HUNG_PROGRAM = """
fn main() {
    var buf: u8[4];
    var n: u32 = read_secret(buf, 4);
    var i: u32 = 0;
    while (n > 0) { i = i + 1; }
    output(buf[0]);
}
"""


def log(message):
    print("service-smoke: %s" % message, flush=True)


def start_daemon(state_dir, extra=()):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--dir", state_dir,
         "--port", "0", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    endpoint = os.path.join(state_dir, "endpoint.json")
    deadline = time.monotonic() + 60
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
        with urllib.request.urlopen(req, timeout=15) as response:
            return (response.status, json.loads(response.read()),
                    dict(response.headers))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


def wait_terminal(base, job_id, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, doc, _ = request(base, "GET", "/v1/jobs/" + job_id)
        if doc["state"] in ("done", "partial", "failed", "cancelled"):
            return doc
        time.sleep(0.1)
    raise AssertionError("job %s never finished" % job_id)


def worker_pids(parent_pid):
    """Child processes of the daemon (the pool workers), via /proc."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as handle:
                fields = handle.read().split()
            if int(fields[3]) == parent_pid:
                pids.append(int(entry))
        except (OSError, IndexError, ValueError):
            continue
    return pids


def is_running(pid):
    """Whether ``pid`` exists and is not a zombie."""
    try:
        with open("/proc/%d/stat" % pid) as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


def listening_inode(port):
    """Inode of the TCP socket listening on ``port``, via /proc/net."""
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(table) as handle:
                rows = handle.read().splitlines()[1:]
        except OSError:
            continue
        for row in rows:
            fields = row.split()
            local_port = int(fields[1].rsplit(":", 1)[1], 16)
            if fields[3] == "0A" and local_port == port:  # 0A: LISTEN
                return int(fields[9])
    raise AssertionError("no socket listens on port %d" % port)


def daemon_descriptors(pid, state_dir, socket_inode):
    """``pid``'s descriptors on a path under ``state_dir`` or on the
    daemon's listening socket."""
    root = os.path.join(os.path.realpath(state_dir), "")
    socket_link = "socket:[%d]" % socket_inode
    fd_dir = "/proc/%d/fd" % pid
    held = []
    for name in os.listdir(fd_dir):
        try:
            target = os.readlink(os.path.join(fd_dir, name))
        except OSError:
            continue
        if target.startswith(root) or target == socket_link:
            held.append(target)
    return held


def check_happy_path(base):
    status, doc, _ = request(
        base, "POST", "/v1/jobs",
        {"program": GOOD_PROGRAM, "secrets": ["abcdefgh", "12345678"]})
    assert status == 202, (status, doc)
    final = wait_terminal(base, doc["id"])
    assert final["state"] == "done", final
    assert final["result"]["bits"] == 4, final["result"]
    assert final["result"]["partial"] is False
    log("happy path: 2 runs -> done, 4 bits")


def check_backpressure(base):
    spec = {"program": SLOW_PROGRAM,
            "secrets": ["s%d" % i for i in range(4)]}
    refusal = None
    for i in range(12):
        status, doc, headers = request(base, "POST", "/v1/jobs",
                                       dict(spec, tenant="t%d" % i))
        if status == 429:
            refusal = (doc, headers)
            break
    assert refusal is not None, "queue never refused under saturation"
    doc, headers = refusal
    assert doc["error"] in ("queue_full", "load_shed", "tenant_cap")
    assert int(headers["Retry-After"]) >= 1, headers
    log("backpressure: 429 %s with Retry-After %s"
        % (doc["error"], headers["Retry-After"]))


def check_faulty_jobs(base):
    status, doc, _ = request(base, "POST", "/v1/jobs",
                             {"program": CRASHY_PROGRAM,
                              "secrets": ["aaaa"], "tenant": "crashy"})
    assert status == 202, (status, doc)
    crashy_id = doc["id"]
    status, doc, _ = request(base, "POST", "/v1/jobs",
                             {"program": HUNG_PROGRAM,
                              "secrets": ["hang"], "tenant": "hung"})
    assert status == 202, (status, doc)
    hung_id = doc["id"]
    final = wait_terminal(base, crashy_id)
    assert final["state"] == "failed", final
    assert final["result"]["failures"], final
    # The hung run is cut off by the per-run timeout; the service
    # lives on either way.
    final = wait_terminal(base, hung_id, timeout=180)
    assert final["state"] == "failed", final
    status, doc, _ = request(base, "GET", "/healthz")
    assert status == 200, (status, doc)
    log("fault policy: crashy -> failed, hung -> timed out, "
        "service healthy")


def check_worker_kill(base, daemon_pid):
    status, doc, _ = request(
        base, "POST", "/v1/jobs",
        {"program": SLOW_PROGRAM, "tenant": "killer",
         "secrets": ["kill%03d" % i for i in range(8)]})
    assert status == 202, (status, doc)
    job_id = doc["id"]
    # Wait for at least one checkpointed run (so the survivors carry a
    # bound and the job can land partial), then shoot a live worker.
    deadline = time.monotonic() + 120
    killed = False
    while time.monotonic() < deadline and not killed:
        _, doc, _ = request(base, "GET", "/v1/jobs/" + job_id)
        if doc["state"] == "running" and doc.get("runs_done", 0) >= 1:
            # Kill every child (workers plus multiprocessing helpers):
            # guarantees the pool actually breaks mid-job.
            for pid in worker_pids(daemon_pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    continue
                killed = True
                log("SIGKILLed worker %d" % pid)
        time.sleep(0.05)
    assert killed, "no pool worker appeared to kill"
    final = wait_terminal(base, job_id, timeout=180)
    # The killed worker's runs are collected as failures; survivors
    # keep their bound.
    assert final["state"] == "partial", final
    assert 0 < final["result"]["covered"] < 8, final["result"]
    assert final["result"]["failures"], final["result"]
    log("worker kill: job completed partial, %d/8 runs covered"
        % final["result"]["covered"])


def check_drain(state_dir, proc, base):
    acked = {}
    _, queue_doc, _ = request(base, "GET", "/v1/queue")
    status, doc, _ = request(
        base, "POST", "/v1/jobs",
        {"program": SLOW_PROGRAM, "tenant": "drain",
         "secrets": ["d%d" % i for i in range(6)]})
    assert status == 202, (status, doc)
    inflight_id = doc["id"]
    time.sleep(1.0)  # let it start checkpointing
    # Snapshot every terminal (acked) job before the drain.
    _, queue_doc, _ = request(base, "GET", "/v1/queue")
    counts = queue_doc["counts"]
    for job_id in _all_job_ids(state_dir):
        _, doc, _ = request(base, "GET", "/v1/jobs/" + job_id)
        if doc["state"] in ("done", "partial", "failed", "cancelled"):
            acked[job_id] = doc["state"]
    assert acked, "nothing acked before the drain?"
    proc.send_signal(signal.SIGTERM)
    out, _ = proc.communicate(timeout=120)
    assert proc.returncode == 0, "drain exit %r:\n%s" % (proc.returncode,
                                                        out)
    assert "drained cleanly" in out, out
    log("drain: exit 0 with %d acked jobs on record (counts: %s)"
        % (len(acked), counts))

    # Restart: no acked job lost or changed, the inflight job resumes.
    proc, base = start_daemon(state_dir)
    try:
        for job_id, state in acked.items():
            status, doc, _ = request(base, "GET", "/v1/jobs/" + job_id)
            assert status == 200, "acked job %s lost" % job_id
            assert doc["state"] == state, (job_id, state, doc["state"])
        final = wait_terminal(base, inflight_id, timeout=180)
        assert final["state"] in ("done", "partial"), final
        log("restart: %d acked jobs intact, drained job finished %s"
            % (len(acked), final["state"]))
    finally:
        proc.terminate()
        proc.wait(timeout=60)


def _all_job_ids(state_dir):
    jobs_dir = os.path.join(state_dir, "jobs")
    known = set()
    if os.path.isdir(jobs_dir):
        known.update(os.listdir(jobs_dir))
    with open(os.path.join(state_dir, "queue.journal")) as handle:
        for line in handle:
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if record.get("rec") == "submit":
                known.add(record["id"])
    return sorted(known)


def check_telemetry(state_dir):
    root = os.path.join(state_dir, "telemetry")
    generations = sorted(name for name in os.listdir(root)
                         if name.isdigit())
    # One stream per daemon lifetime; the drain test restarted once.
    assert len(generations) >= 2, generations
    for generation in generations:
        telemetry = os.path.join(root, generation)
        result = subprocess.run(
            [sys.executable, "-m", "repro", "obs", "check", telemetry],
            capture_output=True, text=True)
        assert result.returncode == 0, (telemetry,
                                        result.stderr or result.stdout)
    log("telemetry: %d generation(s) pass repro obs check"
        % len(generations))


def check_torn_journal(state_dir):
    """A crash can leave a torn last journal line.  The next daemon
    must truncate it before appending, so a job it answers 202 is
    still there after that daemon is killed in turn."""
    with open(os.path.join(state_dir, "queue.journal"), "a") as handle:
        handle.write('{"rec": "submit", "id": "job-torn", "ts": 1')
    proc, base = start_daemon(state_dir)
    try:
        status, doc, _ = request(
            base, "POST", "/v1/jobs",
            {"program": SLOW_PROGRAM, "tenant": "torn",
             "secrets": ["t0", "t1"]})
        assert status == 202, (status, doc)
        job_id = doc["id"]
        proc.kill()
        proc.wait(timeout=60)
        proc, base = start_daemon(state_dir)
        status, doc, _ = request(base, "GET", "/v1/jobs/" + job_id)
        assert status == 200, ("job %s, accepted after a torn journal "
                               "tail, lost at the next restart" % job_id)
        final = wait_terminal(base, job_id, timeout=180)
        assert final["state"] == "done", final
        log("torn journal: job %s accepted over a torn tail survived "
            "SIGKILL and finished" % job_id)
    finally:
        proc.terminate()
        proc.wait(timeout=60)


def check_orphans(state_dir):
    """A daemon keeps its pool between jobs; killed outright, it must
    not leave the idle workers behind."""
    proc, base = start_daemon(state_dir, extra=("--jobs", "2"))
    try:
        check_happy_path(base)
        pids = worker_pids(proc.pid)
        assert pids, "no warm pool worker after a completed job"
        inode = listening_inode(int(base.rsplit(":", 1)[1]))
        for pid in pids:
            held = daemon_descriptors(pid, state_dir, inode)
            assert not held, ("warm worker %d holds daemon descriptors: %s"
                              % (pid, held))
        log("orphans: %d warm worker(s) hold no state-dir file or "
            "listening socket" % len(pids))
        proc.kill()
        proc.wait(timeout=60)
        deadline = time.monotonic() + 5.0
        alive = pids
        while alive and time.monotonic() < deadline:
            time.sleep(0.05)
            alive = [pid for pid in alive if is_running(pid)]
        assert not alive, "workers outlived the killed daemon: %s" % alive
        log("orphans: %d warm worker(s) exited after the daemon's SIGKILL"
            % len(pids))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=60)


def main():
    state_dir = sys.argv[1] if len(sys.argv) > 1 else None
    cleanup = state_dir is None
    if state_dir is None:
        state_dir = tempfile.mkdtemp(prefix="repro-service-smoke-")
    proc, base = start_daemon(
        state_dir,
        extra=("--jobs", "2", "--queue-depth", "6", "--max-inflight",
               "3", "--timeout", "15", "--telemetry-interval", "0.2"))
    try:
        check_happy_path(base)
        check_backpressure(base)
        # Let the saturation queue fully drain before the fault runs.
        for job_id in _all_job_ids(state_dir):
            wait_terminal(base, job_id, timeout=300)
        check_faulty_jobs(base)
        check_worker_kill(base, proc.pid)
        check_drain(state_dir, proc, base)
        check_telemetry(state_dir)
        check_torn_journal(state_dir)
        check_orphans(os.path.join(state_dir, "orphans"))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=60)
        if cleanup:
            shutil.rmtree(state_dir, ignore_errors=True)
    log("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
