"""The queue-v1 journal: durability, replay, and the truncation property."""

import json
import os
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ServeError
from repro.serve import ACK_STATES, JobQueue, replay_journal

SPEC = {"program": "fn main() {}", "secrets_hex": ["61"]}


def journal(tmp_path):
    return os.path.join(str(tmp_path), "queue.journal")


class TestJobQueue:
    def test_submit_is_durable_and_replayable(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = queue.submit(SPEC, tenant="t1")
        queue.close()
        reopened = JobQueue(tmp_path)
        again = reopened.get(job.id)
        assert again is not None
        assert again.state == "queued"
        assert again.tenant == "t1"
        assert again.spec == SPEC
        assert again.replayed
        assert reopened.replayed == 1

    def test_ack_retires_a_job(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = queue.submit(SPEC)
        queue.ack(job.id, "done", {"bits": 3})
        queue.close()
        reopened = JobQueue(tmp_path)
        assert reopened.get(job.id).state == "done"
        assert reopened.get(job.id).summary == {"bits": 3}
        assert reopened.replayed == 0

    def test_double_ack_rejected(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = queue.submit(SPEC)
        queue.ack(job.id, "done")
        with pytest.raises(ServeError):
            queue.ack(job.id, "failed")

    def test_bad_ack_state_rejected(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = queue.submit(SPEC)
        with pytest.raises(ValueError):
            queue.ack(job.id, "exploded")

    def test_duplicate_job_id_rejected(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(SPEC, job_id="job-1")
        with pytest.raises(ServeError):
            queue.submit(SPEC, job_id="job-1")

    def test_claim_oldest_first(self, tmp_path):
        queue = JobQueue(tmp_path)
        first = queue.submit(SPEC)
        second = queue.submit(SPEC)
        assert queue.claim().id == first.id
        assert queue.claim().id == second.id
        assert queue.claim() is None
        assert queue.depth() == 0
        assert queue.inflight() == 2

    def test_requeue_puts_job_back(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = queue.submit(SPEC)
        queue.claim()
        queue.requeue(job.id)
        assert queue.get(job.id).state == "queued"
        assert queue.claim().id == job.id

    def test_cancel_request_survives_restart(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = queue.submit(SPEC)
        assert queue.request_cancel(job.id) is not None
        queue.close()
        assert JobQueue(tmp_path).get(job.id).cancel_requested

    def test_cancel_terminal_returns_none(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = queue.submit(SPEC)
        queue.ack(job.id, "cancelled")
        assert queue.request_cancel(job.id) is None

    def test_running_replays_as_queued(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = queue.submit(SPEC)
        queue.claim()
        queue.close()  # crash while running: no ack in the journal
        reopened = JobQueue(tmp_path)
        assert reopened.get(job.id).state == "queued"
        assert reopened.replayed == 1

    def test_tenant_inflight_counts(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(SPEC, tenant="a")
        queue.submit(SPEC, tenant="a")
        done = queue.submit(SPEC, tenant="b")
        queue.ack(done.id, "done")
        assert queue.inflight("a") == 2
        assert queue.inflight("b") == 0
        assert queue.snapshot()["inflight_by_tenant"] == {"a": 2}


class TestReplay:
    def test_torn_final_line_dropped_silently(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = queue.submit(SPEC)
        queue.close()
        with open(journal(tmp_path), "a") as handle:
            handle.write('{"rec": "ack", "id": "%s", "sta' % job.id)
        jobs, skipped = replay_journal(journal(tmp_path))
        assert skipped == 0
        assert jobs[job.id].state == "queued"

    def test_malformed_interior_line_counted(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = queue.submit(SPEC)
        queue.close()
        with open(journal(tmp_path), "a") as handle:
            handle.write("NOT JSON\n")
        with open(journal(tmp_path), "a") as handle:
            handle.write(json.dumps({"rec": "ack", "id": job.id,
                                     "state": "done"}) + "\n")
        jobs, skipped = replay_journal(journal(tmp_path))
        assert skipped == 1
        assert jobs[job.id].state == "done"

    def test_ack_for_unknown_id_skipped(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.close()
        with open(journal(tmp_path), "a") as handle:
            handle.write(json.dumps({"rec": "ack", "id": "job-ghost",
                                     "state": "done"}) + "\n")
        jobs, skipped = replay_journal(journal(tmp_path))
        assert jobs == {}
        assert skipped == 1


def _build_journal(path, operations):
    """Drive a real queue through ``operations``; returns the expected
    terminal state of every submitted job id."""
    queue = JobQueue(os.path.dirname(path))
    expected = {}
    job_ids = []
    for op in operations:
        kind = op[0]
        if kind == "submit":
            job = queue.submit(SPEC, tenant=op[1])
            job_ids.append(job.id)
            expected[job.id] = "queued"
        elif kind == "ack" and job_ids:
            job_id = job_ids[op[1] % len(job_ids)]
            if expected[job_id] in ACK_STATES:
                continue
            state = ACK_STATES[op[2] % len(ACK_STATES)]
            queue.ack(job_id, state)
            expected[job_id] = state
        elif kind == "cancel" and job_ids:
            queue.request_cancel(job_ids[op[1] % len(job_ids)])
    queue.close()
    return expected


class TestTruncationProperty:
    """Any prefix of a queue-v1 journal replays to a consistent state:
    every fully-journaled submit survives, no job is double-completed,
    and acks that made it to disk stick."""

    @settings(max_examples=25, deadline=None)
    @given(operations=st.lists(
        st.one_of(
            st.tuples(st.just("submit"),
                      st.sampled_from(["a", "b", "c"])),
            st.tuples(st.just("ack"), st.integers(0, 9),
                      st.integers(0, 9)),
            st.tuples(st.just("cancel"), st.integers(0, 9)),
        ), max_size=12),
           cut_fraction=st.floats(0.0, 1.0))
    def test_any_prefix_is_consistent(self, tmp_path_factory, operations,
                                      cut_fraction):
        tmp_path = tmp_path_factory.mktemp("journal")
        path = journal(tmp_path)
        expected = _build_journal(path, operations)
        with open(path, "rb") as handle:
            data = handle.read()
        cut = int(len(data) * cut_fraction)
        truncated = os.path.join(str(tmp_path), "truncated.journal")
        with open(truncated, "wb") as handle:
            handle.write(data[:cut])
        jobs, skipped = replay_journal(truncated)
        # Only whole records made the prefix, so nothing is "skipped"
        # damage — at most the torn tail was dropped.
        assert skipped == 0
        full_jobs, _ = replay_journal(path)
        for job_id, job in jobs.items():
            # 1. every replayed job was genuinely submitted;
            assert job_id in expected
            # 2. a terminal state in the prefix matches the full
            #    journal's (acks are single atomic records: a prefix
            #    can lose one, never invent or change one);
            if job.state in ACK_STATES:
                assert job.state == full_jobs[job_id].state
            # 3. and a non-terminal replay means the ack lies beyond
            #    the cut — the job resumes, it is not lost.
            else:
                assert job.state == "queued"
        # 4. prefixes only shrink knowledge: no job appears that the
        #    full journal lacks.
        assert set(jobs) <= set(full_jobs)
        # 5. the full journal replays exactly the states the live queue
        #    reached.
        assert {j: r.state for j, r in full_jobs.items()} == expected
        # 6. a restart over the prefix accepts durably: a job submitted
        #    there, and every job the prefix replayed, survive the next
        #    restart (the new record is not glued onto a torn tail).
        state = os.path.join(str(tmp_path), "restart")
        os.makedirs(state)
        shutil.copy(truncated, journal(state))
        with JobQueue(state) as queue:
            new_id = queue.submit(SPEC).id
        reopened = JobQueue(state)
        assert reopened.skipped_lines == 0
        assert {j: r.state for j, r in reopened.jobs.items()} == dict(
            {j: r.state for j, r in jobs.items()}, **{new_id: "queued"})
