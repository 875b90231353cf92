"""A job killed while it finishes resumes to the uninterrupted result.

Finishing a job writes ``result.json`` and then acks it.  A crash
between those writes leaves the job unacknowledged with every run
checkpointed, so the next daemon replays it straight into the final
combine.  That combine must reproduce the uninterrupted result exactly
— anytime trail included — whatever else the crash left in the job
directory.  The seeded state below is the worst case an older daemon,
which checkpointed its Kraft accountant, could leave: a sealed,
finalized ``kraft.json`` next to a complete ``progress.jsonl``.
"""

import json
import shutil
import time

from repro.serve import MeasurementDaemon, ServeConfig
from repro.serve.daemon import validate_spec
from repro.serve.queue import JobQueue

PROGRAM = """
fn main() {
    var buf: u8[8];
    var n: u32 = read_secret(buf, 8);
    output(buf[0] & 7);
    output(buf[1] & 3);
}
"""

SPEC = {"program": PROGRAM,
        "secrets": ["abcdefgh", "12345678", "zz", "q?q?q?q?"]}


def wait_terminal(daemon, job_id):
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        doc = daemon.job_status(job_id)
        if doc["state"] in ("done", "partial", "failed", "cancelled"):
            return doc
        time.sleep(0.05)
    raise AssertionError("job %s never finished" % job_id)


def scrub(result):
    """A result document minus its run-dependent fields."""
    doc = dict(result)
    doc.pop("id", None)
    doc.pop("seconds", None)
    return doc


#: The ``kraft-v1`` checkpoint an older daemon left for SPEC once its
#: final solve had run: the four runs admitted, then sealed and
#: finalized at the job's 20 bits.  No daemon reads or writes it now.
FINALIZED_KRAFT_DOC = {
    "format": "kraft-v1",
    "kraft": {"groups": [[0, 64, 4611686018427387904],
                         [1, 64, 4611686018427387904],
                         [2, 16, 4611686018427387904],
                         [3, 64, 4611686018427387904]],
              "next_id": 4, "sealed": True, "final": 20,
              "trail": [208, 20], "updates": 2},
    "runs": [0, 1, 2, 3],
}


class TestCrashWhileFinishing:
    def test_replayed_finish_matches_uninterrupted(self, tmp_path):
        # Reference: the same job, undisturbed.
        ref_state = tmp_path / "reference"
        daemon = MeasurementDaemon(ServeConfig(ref_state, port=0,
                                               telemetry=False))
        daemon.start()
        try:
            _, job, error = daemon.submit_job(SPEC)
            assert error is None
            reference = wait_terminal(daemon, job.id)
        finally:
            daemon.stop()
        assert reference["state"] == "done"
        reference = reference["result"]
        assert len(reference["anytime"]) > 2

        # Victim: the journal holds the job unacknowledged, its runs
        # are all checkpointed, and kraft.json was already finalized.
        state = tmp_path / "victim"
        with JobQueue(str(state)) as queue:
            queue.submit(validate_spec(SPEC), job_id=job.id)
        job_dir = state / "jobs" / job.id
        ref_dir = ref_state / "jobs" / job.id
        shutil.copytree(ref_dir / "store", job_dir / "store")
        shutil.copy(ref_dir / "progress.jsonl", job_dir / "progress.jsonl")
        (job_dir / "kraft.json").write_text(json.dumps(FINALIZED_KRAFT_DOC))

        daemon = MeasurementDaemon(ServeConfig(state, port=0,
                                               telemetry=False))
        daemon.start()
        try:
            resumed = wait_terminal(daemon, job.id)
        finally:
            daemon.stop()
        assert resumed["state"] == "done"
        assert scrub(resumed["result"]) == scrub(reference)
