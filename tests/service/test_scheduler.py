"""SweepScheduler: cross-job merge, telemetry, failure containment,
crash-resume without re-running cached work."""

import time

import pytest

from repro.attacks.proximity import ProximityAttack
from repro.experiments import ResultsStore, ScenarioSpec
from repro.pipeline import clear_memo
from repro.service import JobQueue, SweepScheduler

POLL = 0.01


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
    clear_memo()
    yield
    clear_memo()


def prox(design, **kw):
    return ScenarioSpec(design=design, split_layer=3, attack="proximity", **kw)


def poll(queue, job_id, timeout=30.0):
    """Re-read the journal until the job is terminal or ``timeout``
    passes; returns the job (None when unknown)."""
    deadline = time.monotonic() + timeout
    while True:
        queue.refresh()
        job = queue.get(job_id)
        if job is None or job.done or time.monotonic() >= deadline:
            return job
        time.sleep(0.005)


def wait_done(queue, job_id, timeout=30.0):
    job = poll(queue, job_id, timeout=timeout)
    assert job is not None and job.done, f"job stuck: {job and job.status}"
    return job


@pytest.fixture()
def service_parts(tmp_path):
    queue = JobQueue(tmp_path / "queue.jsonl")
    store = ResultsStore(tmp_path / "exp.jsonl")
    scheduler = SweepScheduler(queue, store, poll_interval=POLL).start()
    yield queue, store, scheduler
    scheduler.stop()


class TestExecution:
    def test_job_runs_to_completion_with_telemetry(self, service_parts):
        queue, store, scheduler = service_parts
        job, _ = queue.submit([prox("tiny_a"), prox("tiny_b")])
        done = wait_done(queue, job.job_id)
        assert done.status == "done"
        assert done.nodes_total == 4  # 2 layouts + 2 evals
        assert done.nodes_done == 4
        assert done.telemetry["executed"] == 4
        assert len(done.telemetry["node_seconds"]) == 4
        for spec in (prox("tiny_a"), prox("tiny_b")):
            record = store.get(spec)
            assert record is not None and record.status == "ok"
            assert record.extra["telemetry"]["node_seconds"] >= 0
            assert record.extra["telemetry"]["job_ids"] == [job.job_id]

    def test_shared_nodes_merge_across_jobs(self, service_parts):
        queue, store, scheduler = service_parts
        # Both jobs need the tiny_a layout; distinct eval scenarios
        # (different split layers) keep the jobs non-duplicate.
        a, _ = queue.submit([prox("tiny_a"), prox("tiny_b")])
        b, _ = queue.submit([
            prox("tiny_a").with_(split_layer=2),
            prox("tiny_b").with_(split_layer=2),
        ])
        wait_done(queue, a.job_id)
        wait_done(queue, b.job_id)
        # 2 shared layout nodes + 4 distinct evals — never 8 nodes.
        assert scheduler.nodes_executed == 6

    def test_second_submission_reuses_everything(self, service_parts):
        queue, store, scheduler = service_parts
        first, _ = queue.submit([prox("tiny_a")])
        wait_done(queue, first.job_id)
        executed = scheduler.nodes_executed
        # Not a duplicate (first is terminal) and not from_store (no
        # store handed to submit): the scheduler plans it and resolves
        # everything from the store without running any node.
        second, outcome = queue.submit([prox("tiny_a")])
        assert outcome == "queued"
        done = wait_done(queue, second.job_id)
        assert done.status == "done"
        assert done.nodes_total == 0
        assert done.reused == 1
        assert scheduler.nodes_executed == executed

    def test_node_failure_fails_owner_not_neighbour(self, service_parts,
                                                    monkeypatch):
        queue, store, scheduler = service_parts

        real_select = ProximityAttack.select

        def selective_boom(self, split):
            if split.name == "tiny_seq":
                raise RuntimeError("boom")
            return real_select(self, split)

        monkeypatch.setattr(ProximityAttack, "select", selective_boom)
        bad, _ = queue.submit([prox("tiny_seq")])
        good, _ = queue.submit([prox("tiny_a")])
        assert wait_done(queue, bad.job_id).status == "failed"
        done = wait_done(queue, good.job_id)
        assert done.status == "done"
        assert "boom" in queue.get(bad.job_id).error
        # A later job containing the poisoned node fails fast, and its
        # other nodes must not be dispatched as ownerless orphans.
        executed = scheduler.nodes_executed
        poisoned, _ = queue.submit([prox("tiny_seq"), prox("tiny_b")])
        assert wait_done(queue, poisoned.job_id).status == "failed"
        time.sleep(5 * POLL)  # give a buggy ready-scan time to dispatch
        assert scheduler.nodes_executed == executed


class TestCancellation:
    def test_cancelled_queued_job_never_dispatches(self, tmp_path):
        queue = JobQueue(tmp_path / "queue.jsonl")
        store = ResultsStore(tmp_path / "exp.jsonl")
        job, _ = queue.submit([prox("tiny_a")])
        assert queue.cancel(job.job_id) is True
        # Scheduler started only after the cancellation: the job is
        # terminal, so nothing is ever claimed or executed.
        scheduler = SweepScheduler(queue, store, poll_interval=POLL).start()
        try:
            done = wait_done(queue, job.job_id)
            assert done.status == "cancelled"
            time.sleep(5 * POLL)
            assert scheduler.nodes_executed == 0
            assert store.records() == []
        finally:
            scheduler.stop()

    def test_cancel_active_job_drops_pending_nodes(self, tmp_path):
        # Drive the scheduler's internals directly (no thread) so the
        # cancel lands deterministically between activation and
        # dispatch — the racy window the loop has to handle.
        queue = JobQueue(tmp_path / "queue.jsonl")
        store = ResultsStore(tmp_path / "exp.jsonl")
        scheduler = SweepScheduler(queue, store, poll_interval=POLL)
        job, _ = queue.submit([prox("tiny_a"), prox("tiny_b")])
        scheduler._claim_all()
        assert queue.get(job.job_id).status == "running"
        assert scheduler._nodes  # planned, nothing dispatched yet
        assert queue.cancel(job.job_id) is True
        scheduler._drop_cancelled()
        # Every pending node left the ready scan; nothing to dispatch.
        assert scheduler._ready_batch() == []
        assert scheduler._nodes == {}
        assert scheduler.nodes_executed == 0
        assert queue.get(job.job_id).status == "cancelled"
        scheduler.executor.close()

    def test_cancel_keeps_nodes_shared_with_live_jobs(self, tmp_path):
        queue = JobQueue(tmp_path / "queue.jsonl")
        store = ResultsStore(tmp_path / "exp.jsonl")
        scheduler = SweepScheduler(queue, store, poll_interval=POLL)
        # Both jobs need the tiny_a layout; the split_layer=2 eval keeps
        # them non-duplicate.
        doomed, _ = queue.submit([prox("tiny_a")])
        alive, _ = queue.submit([prox("tiny_a").with_(split_layer=2)])
        scheduler._claim_all()
        queue.cancel(doomed.job_id)
        scheduler._drop_cancelled()
        # The shared layout node survives for the live job; only the
        # cancelled job's exclusive eval node is gone.
        kinds = sorted(node.kind for node in scheduler._nodes.values())
        assert kinds == ["eval", "layout"]
        assert all(
            owners == [alive.job_id]
            for owners in scheduler._owners.values()
        )
        scheduler.executor.close()


class TestCrashResume:
    def test_restart_skips_work_that_survived_the_crash(self, tmp_path):
        queue_path = tmp_path / "queue.jsonl"
        store_path = tmp_path / "exp.jsonl"

        # A scheduler claims a two-scenario job (under an already-
        # expired lease: it dies long before anyone replays), finishes
        # the tiny_a half (layout cached + record stored), then dies
        # without a terminal journal event.
        queue = JobQueue(queue_path)
        job, _ = queue.submit([prox("tiny_a"), prox("tiny_b")])
        assert queue.claim(lease_s=0.0) is not None
        from repro.experiments import run_sweep

        run_sweep([prox("tiny_a")], store=ResultsStore(store_path))

        # Restart: replay requeues the job; the new scheduler's plan
        # prunes the cached layout and the stored evaluation, so only
        # tiny_b's layout + eval actually run.
        clear_memo()
        survivor_queue = JobQueue(queue_path)
        assert survivor_queue.get(job.job_id).status == "queued"
        store = ResultsStore(store_path)
        scheduler = SweepScheduler(
            survivor_queue, store, poll_interval=POLL
        ).start()
        try:
            done = wait_done(survivor_queue, job.job_id)
            assert done.status == "done"
            assert scheduler.nodes_executed == 2  # tiny_b layout + eval
            assert done.reused == 1  # tiny_a came back from the store
        finally:
            scheduler.stop()
        # tiny_a was evaluated exactly once across the crash.
        hashes = [r.scenario_hash for r in store.history()]
        assert hashes.count(prox("tiny_a").scenario_hash) == 1

    def test_resubmitted_job_after_restart_answered_from_store(
        self, tmp_path
    ):
        queue_path = tmp_path / "queue.jsonl"
        store = ResultsStore(tmp_path / "exp.jsonl")
        queue = JobQueue(queue_path)
        scheduler = SweepScheduler(queue, store, poll_interval=POLL).start()
        try:
            job, _ = queue.submit([prox("tiny_a")])
            wait_done(queue, job.job_id)
        finally:
            scheduler.stop()
        # Fresh queue (restart): dedup consults the store directly.
        again = JobQueue(queue_path)
        rejob, outcome = again.submit([prox("tiny_a")], store=store)
        assert outcome == "from_store"
        assert rejob.status == "done"


class TestPriority:
    def test_high_priority_claims_first(self, tmp_path):
        queue = JobQueue(tmp_path / "queue.jsonl")
        store = ResultsStore(tmp_path / "exp.jsonl")
        low, _ = queue.submit([prox("tiny_a")], priority=0)
        high, _ = queue.submit([prox("tiny_b")], priority=9)
        # Scheduler started after both submissions: the claim order is
        # purely the queue's priority order.
        scheduler = SweepScheduler(queue, store, poll_interval=POLL).start()
        try:
            wait_done(queue, low.job_id)
            wait_done(queue, high.job_id)
        finally:
            scheduler.stop()
        events = [
            line for line in
            (tmp_path / "queue.jsonl").read_text().splitlines()
            if '"claim"' in line
        ]
        assert high.job_id in events[0]


class TestWakeup:
    def test_submit_between_claim_pass_and_wait_is_not_lost(
        self, tmp_path
    ):
        """A submit that lands after the loop's claim pass but before
        its condition wait has already notified; the loop must notice
        (via the queue's change counter) instead of sleeping through a
        whole poll interval."""
        queue = JobQueue(tmp_path / "queue.jsonl")
        store = ResultsStore(tmp_path / "exp.jsonl")
        scheduler = SweepScheduler(queue, store, poll_interval=30.0)
        real_ready_batch = scheduler._ready_batch
        submitted = {}

        def ready_batch():
            batch = real_ready_batch()
            if not batch and not submitted:
                # The claim -> wait window, entered deterministically.
                submitted["at"] = time.monotonic()
                submitted["job"], _ = queue.submit([prox("tiny_a")])
            return batch

        scheduler._ready_batch = ready_batch
        scheduler.start()
        try:
            deadline = time.monotonic() + 10.0
            while "job" not in submitted and time.monotonic() < deadline:
                time.sleep(0.005)
            assert "job" in submitted, "scheduler loop never ran"
            wait_done(queue, submitted["job"].job_id, timeout=10.0)
            elapsed = time.monotonic() - submitted["at"]
        finally:
            scheduler.stop()
        assert elapsed < 2.0, f"wakeup lost: job took {elapsed:.1f}s"
