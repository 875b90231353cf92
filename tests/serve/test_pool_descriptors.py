"""Kept pool workers hold none of the daemon's descriptors.

The batch engine keeps its worker pool between jobs, and the workers
are forked in the middle of the first ``--jobs 2`` job: the daemon then
has that job's ``progress.jsonl`` and shard pack, the queue journal and
the listening socket open.  A worker that kept them would pin a deleted
job's files on disk and the port's socket for the pool's lifetime.
"""

import os
import time

import pytest

from repro.serve import MeasurementDaemon, ServeConfig

pytestmark = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                                reason="needs procfs")

PROGRAM = """
fn main() {
    var buf: u8[8];
    var n: u32 = read_secret(buf, 8);
    output(buf[0] & 7);
}
"""


def children(parent_pid):
    """Live child processes of ``parent_pid``, via /proc."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == parent_pid and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def descriptor_targets(pid):
    """What each of ``pid``'s descriptors resolves to."""
    targets = []
    fd_dir = "/proc/%d/fd" % pid
    for name in os.listdir(fd_dir):
        try:
            targets.append(os.readlink(os.path.join(fd_dir, name)))
        except OSError:
            continue
    return targets


def test_kept_workers_hold_no_daemon_descriptor(tmp_path):
    state = tmp_path / "state"
    daemon = MeasurementDaemon(ServeConfig(state, port=0, jobs=2,
                                           telemetry=False))
    daemon.start()
    try:
        _, job, _ = daemon.submit_job(
            {"program": PROGRAM, "secrets": ["abcdefgh", "12345678",
                                             "zz", "q?q?q?q?"]})
        deadline = time.monotonic() + 60
        while daemon.job_status(job.id)["state"] != "done":
            assert time.monotonic() < deadline, "job never finished"
            time.sleep(0.05)
        workers = children(os.getpid())
        assert workers, "no kept pool worker after a --jobs 2 job"
        root = os.path.join(os.path.realpath(state), "")
        listening = "socket:[%d]" % os.fstat(
            daemon._server.fileno()).st_ino
        for pid in workers:
            held = [target for target in descriptor_targets(pid)
                    if target.startswith(root) or target == listening]
            assert not held, "worker %d holds %s" % (pid, held)
    finally:
        daemon.stop()
