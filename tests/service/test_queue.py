"""JobQueue: journal persistence, claims, dedup, crash-resume,
cancellation, compaction."""

import json
import time

import pytest

from repro.experiments import ResultsStore, ScenarioRecord, ScenarioSpec
from repro.service import JobQueue


def prox(design, **kw):
    return ScenarioSpec(design=design, split_layer=3, attack="proximity", **kw)


def poll(queue, job_id, timeout=0.01):
    """Re-read the journal until the job is terminal or ``timeout``
    passes; returns the job (None when unknown)."""
    deadline = time.monotonic() + timeout
    while True:
        queue.refresh()
        job = queue.get(job_id)
        if job is None or job.done or time.monotonic() >= deadline:
            return job
        time.sleep(0.005)


@pytest.fixture()
def queue_path(tmp_path):
    return tmp_path / "queue.jsonl"


class TestSubmit:
    def test_submit_and_get(self, queue_path):
        queue = JobQueue(queue_path)
        job, outcome = queue.submit([prox("tiny_a")], priority=3)
        assert outcome == "queued"
        assert job.status == "queued"
        assert job.priority == 3
        assert queue.get(job.job_id) is job
        assert queue_path.exists()

    def test_empty_submission_rejected(self, queue_path):
        with pytest.raises(ValueError):
            JobQueue(queue_path).submit([])

    def test_inflight_dedup_by_spec_hash_set(self, queue_path):
        queue = JobQueue(queue_path)
        first, _ = queue.submit([prox("tiny_a"), prox("tiny_b")])
        # Same scenarios, different order and labels: same computation.
        again, outcome = queue.submit([
            prox("tiny_b", label="x"), prox("tiny_a", tags=("y",)),
        ])
        assert outcome == "duplicate"
        assert again.job_id == first.job_id
        assert len(queue.jobs()) == 1

    def test_no_dedup_after_terminal(self, queue_path):
        queue = JobQueue(queue_path)
        first, _ = queue.submit([prox("tiny_a")])
        queue.claim()
        queue.fail(first.job_id, "boom")
        second, outcome = queue.submit([prox("tiny_a")])
        assert outcome == "queued"
        assert second.job_id != first.job_id

    def test_store_hit_completes_without_scheduling(self, queue_path,
                                                    tmp_path):
        store = ResultsStore(tmp_path / "exp.jsonl")
        spec = prox("tiny_a")
        store.add(ScenarioRecord(
            scenario_hash=spec.scenario_hash, scenario=spec.to_dict(),
            status="ok", ccr=50.0, runtime_s=0.1,
        ))
        queue = JobQueue(queue_path)
        job, outcome = queue.submit([spec], store=store)
        assert outcome == "from_store"
        assert job.status == "done" and job.from_store
        assert job.nodes_total == 0
        assert queue.claim() is None  # nothing for a scheduler to do


class TestClaim:
    def test_priority_then_fifo(self, queue_path):
        queue = JobQueue(queue_path)
        low1, _ = queue.submit([prox("tiny_a")], priority=0)
        high, _ = queue.submit([prox("tiny_b")], priority=5)
        low2, _ = queue.submit([prox("tiny_seq")], priority=0)
        order = [queue.claim().job_id for _ in range(3)]
        assert order == [high.job_id, low1.job_id, low2.job_id]
        assert queue.claim() is None

    def test_claim_is_journaled(self, queue_path):
        queue = JobQueue(queue_path)
        job, _ = queue.submit([prox("tiny_a")])
        queue.claim(worker="w1")
        events = [
            json.loads(line)["event"]
            for line in queue_path.read_text().splitlines()
        ]
        assert events == ["submit", "claim"]
        assert queue.get(job.job_id).claimed_by == "w1"


class TestPersistence:
    def test_restart_preserves_jobs_and_state(self, queue_path):
        queue = JobQueue(queue_path)
        a, _ = queue.submit([prox("tiny_a")], priority=2)
        b, _ = queue.submit([prox("tiny_b")])
        queue.claim()
        queue.progress(a.job_id, nodes_done=1, nodes_total=3)
        queue.complete(a.job_id, telemetry={"executed": 3})

        reloaded = JobQueue(queue_path)
        ra, rb = reloaded.get(a.job_id), reloaded.get(b.job_id)
        assert ra.status == "done"
        assert ra.telemetry == {"executed": 3}
        assert rb.status == "queued"
        assert rb.spec_hashes == b.spec_hashes

    def test_crash_resume_requeues_claimed_jobs(self, queue_path):
        queue = JobQueue(queue_path)
        job, _ = queue.submit([prox("tiny_a")])
        # lease_s=0.0: the claimant's lease is already expired by the
        # time anyone replays — a scheduler that died long ago.
        queue.claim(worker="dead-scheduler", lease_s=0.0)
        assert queue.get(job.job_id).status == "running"

        # Simulated crash: a new process replays the journal; the
        # running job's lease is expired with no terminal event, so it
        # is requeued (and the requeue is itself journaled for other
        # readers).  Live leases survive a replay — see
        # tests/service/test_leases.py.
        survivor = JobQueue(queue_path)
        rejob = survivor.get(job.job_id)
        assert rejob.status == "queued"
        assert rejob.claimed_by is None
        assert survivor.claim() is not None
        events = [
            json.loads(line)["event"]
            for line in queue_path.read_text().splitlines()
        ]
        assert "requeue" in events

    def test_readonly_replay_does_not_steal_running_jobs(self, queue_path):
        queue = JobQueue(queue_path)
        job, _ = queue.submit([prox("tiny_a")])
        queue.claim(worker="live-scheduler")
        # An inspection-only reader must not requeue the live
        # scheduler's in-flight work.
        reader = JobQueue(queue_path, recover=False)
        assert reader.get(job.job_id).status == "running"
        assert reader.claim() is None
        assert queue.get(job.job_id).status == "running"

    def test_torn_journal_line_is_ignored(self, queue_path):
        queue = JobQueue(queue_path)
        job, _ = queue.submit([prox("tiny_a")])
        with open(queue_path, "a") as handle:
            handle.write('{"event": "submit", "job": {trunc')  # torn
        reloaded = JobQueue(queue_path)
        assert reloaded.get(job.job_id) is not None
        assert len(reloaded.jobs()) == 1

    def test_cancel_is_journaled_and_replayed(self, queue_path):
        queue = JobQueue(queue_path)
        job, _ = queue.submit([prox("tiny_a")])
        assert queue.cancel(job.job_id) is True
        assert job.status == "cancelled" and job.done
        assert job.finished_at > 0
        # Terminal: a second cancel is a no-op, the scheduler never
        # claims it, and a status poll sees it terminal at once.
        assert queue.cancel(job.job_id) is False
        assert queue.claim() is None
        assert poll(queue, job.job_id).status == "cancelled"
        # A replaying reader converges on the cancellation and does not
        # requeue the job.
        reloaded = JobQueue(queue_path)
        assert reloaded.get(job.job_id).status == "cancelled"
        assert reloaded.claim() is None

    def test_cancel_running_job_beats_late_done_event(self, queue_path):
        queue = JobQueue(queue_path)
        job, _ = queue.submit([prox("tiny_a")])
        queue.claim()
        assert queue.cancel(job.job_id) is True
        # The scheduler's in-flight batch may still complete the job's
        # last node and journal a terminal event: cancellation wins.
        queue.complete(job.job_id)
        assert queue.get(job.job_id).status == "cancelled"
        assert JobQueue(queue_path).get(job.job_id).status == "cancelled"

    def test_cancel_unknown_job_is_false(self, queue_path):
        assert JobQueue(queue_path).cancel("job-nope") is False

    def test_wait_times_out_then_completes(self, queue_path):
        queue = JobQueue(queue_path)
        job, _ = queue.submit([prox("tiny_a")])
        assert poll(queue, job.job_id).status == "queued"
        queue.claim()
        queue.complete(job.job_id)
        assert poll(queue, job.job_id).status == "done"


class TestCompaction:
    def test_compact_drops_old_terminal_jobs(self, queue_path):
        queue = JobQueue(queue_path)
        done, _ = queue.submit([prox("tiny_a")])
        queue.claim()
        queue.complete(done.job_id, telemetry={"executed": 2})
        cancelled, _ = queue.submit([prox("tiny_b")])
        queue.cancel(cancelled.job_id)
        pending, _ = queue.submit([prox("tiny_seq")])

        lines_before = len(queue_path.read_text().splitlines())
        dropped = queue.compact(ttl_s=0.0)
        assert dropped == 2  # both terminal jobs are past a zero TTL
        lines_after = len(queue_path.read_text().splitlines())
        assert lines_after < lines_before
        assert lines_after == 1  # one snapshot line per surviving job

        # In-memory and replayed views agree: only the pending job.
        assert [j.job_id for j in queue.jobs()] == [pending.job_id]
        reloaded = JobQueue(queue_path)
        assert [j.job_id for j in reloaded.jobs()] == [pending.job_id]
        assert reloaded.claim().job_id == pending.job_id

    def test_compact_keeps_recent_terminal_state_intact(self, queue_path):
        queue = JobQueue(queue_path)
        job, _ = queue.submit([prox("tiny_a")], priority=4)
        queue.claim()
        queue.progress(job.job_id, nodes_done=2, nodes_total=2)
        queue.complete(job.job_id, telemetry={"executed": 2})

        assert queue.compact(ttl_s=3600.0) == 0  # finished just now
        # The multi-event history collapsed to one snapshot line that
        # reconstructs the full job state on replay.
        assert len(queue_path.read_text().splitlines()) == 1
        reloaded = JobQueue(queue_path).get(job.job_id)
        assert reloaded.status == "done"
        assert reloaded.priority == 4
        assert reloaded.nodes_done == 2
        assert reloaded.telemetry == {"executed": 2}
        assert reloaded.finished_at == pytest.approx(
            job.finished_at, abs=1e-6
        )

    def test_pre_timestamp_journals_compact_as_ancient(self, queue_path):
        # Journals written before the `at` field existed replay with
        # finished_at == 0, so any TTL treats their terminal jobs as
        # ancient and drops them.
        queue = JobQueue(queue_path)
        job, _ = queue.submit([prox("tiny_a")])
        queue.claim()
        with open(queue_path, "a") as handle:  # a PR-3-era done event
            handle.write(
                json.dumps({"event": "done", "job_id": job.job_id}) + "\n"
            )
        reloaded = JobQueue(queue_path)
        assert reloaded.get(job.job_id).status == "done"
        assert reloaded.get(job.job_id).finished_at == 0.0
        assert reloaded.compact(ttl_s=10 * 365 * 24 * 3600.0) == 1
        assert reloaded.jobs() == []
