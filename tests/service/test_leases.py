"""Leased claims, heartbeats, crash-safe requeue — hardened by fault
injection (``tests/service/chaos.py``).

The multi-scheduler contract under test:

* a claim is a time-bounded lease journaled with its owner; a live
  lease is never stolen — by a racing claim, a replaying reader, or a
  compaction;
* the claimant's background heartbeat keeps the lease alive even while
  the scheduler is blocked inside a long executor batch;
* a scheduler that *dies* stops heartbeating; once its lease expires,
  any peer requeues (guarded, so a stale requeue cannot unseat a fresh
  re-claim) and finishes the job from the same journal with no lost or
  duplicated records.
"""

import json
import time

import pytest

from repro.core.atomic import atomic_append_line
from repro.experiments import ResultsStore, ScenarioSpec
from repro.pipeline import clear_memo
from repro.service import (
    AttackService,
    JobQueue,
    ServiceClient,
    SweepScheduler,
)

from chaos import (
    FakeClock,
    canonical_record_hash,
    kill_after,
    torn_append,
    truncate_tail,
    wait_until,
)

POLL = 0.01
LEASE = 30.0


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


# -- queue-level lease protocol -----------------------------------------


class TestLeases:
    def test_claim_journals_a_lease(self, tmp_path):
        clock = FakeClock()
        queue = JobQueue(tmp_path / "q.jsonl", clock=clock)
        job, _ = queue.submit([prox("tiny_a")])
        claimed = queue.claim(worker="w1", lease_s=LEASE)
        assert claimed is job
        assert job.claimed_by == "w1"
        assert job.claimed_at == clock.now
        assert job.lease_expires_at == clock.now + LEASE
        events = [
            json.loads(line)
            for line in (tmp_path / "q.jsonl").read_text().splitlines()
        ]
        claim = next(e for e in events if e["event"] == "claim")
        assert claim["worker"] == "w1"
        assert claim["lease_s"] == LEASE
        assert claim["at"] == clock.now

    def test_live_lease_is_never_stolen(self, tmp_path):
        clock = FakeClock()
        queue = JobQueue(tmp_path / "q.jsonl", clock=clock)
        job, _ = queue.submit([prox("tiny_a")])
        queue.claim(worker="w1", lease_s=LEASE)
        clock.advance(LEASE - 1.0)  # old but not expired
        assert queue.claim(worker="w2", lease_s=LEASE) is None
        assert queue.requeue_expired() == []
        assert job.claimed_by == "w1"
        # A replaying reader (scheduler restart in another process)
        # honours the live lease too.
        survivor = JobQueue(tmp_path / "q.jsonl", clock=clock)
        assert survivor.get(job.job_id).status == "running"
        assert survivor.get(job.job_id).claimed_by == "w1"
        assert survivor.claim(worker="w3", lease_s=LEASE) is None

    def test_expired_lease_requeues_and_reclaims(self, tmp_path):
        clock = FakeClock()
        queue = JobQueue(tmp_path / "q.jsonl", clock=clock)
        job, _ = queue.submit([prox("tiny_a")])
        queue.claim(worker="w1", lease_s=LEASE)
        clock.advance(LEASE + 0.1)
        # One claim call does both halves: journal the guarded requeue,
        # then win the fresh claim.
        reclaimed = queue.claim(worker="w2", lease_s=LEASE)
        assert reclaimed is not None
        assert reclaimed.claimed_by == "w2"
        assert reclaimed.requeues == 1
        assert reclaimed.lease_expires_at == clock.now + LEASE
        events = [
            json.loads(line)["event"]
            for line in (tmp_path / "q.jsonl").read_text().splitlines()
        ]
        assert events == ["submit", "claim", "requeue", "claim"]

    def test_heartbeat_extends_lease(self, tmp_path):
        clock = FakeClock()
        queue = JobQueue(tmp_path / "q.jsonl", clock=clock)
        job, _ = queue.submit([prox("tiny_a")])
        queue.claim(worker="w1", lease_s=LEASE)
        clock.advance(LEASE - 1.0)
        assert queue.heartbeat(job.job_id, "w1", lease_s=LEASE) is True
        assert job.lease_expires_at == clock.now + LEASE
        assert job.heartbeat_at == clock.now
        # The renewed lease survives where the original would have died.
        clock.advance(LEASE - 1.0)
        assert queue.claim(worker="w2", lease_s=LEASE) is None
        assert job.claimed_by == "w1"

    def test_heartbeat_denied_to_non_owners_and_after_requeue(
        self, tmp_path
    ):
        clock = FakeClock()
        queue = JobQueue(tmp_path / "q.jsonl", clock=clock)
        job, _ = queue.submit([prox("tiny_a")])
        queue.claim(worker="w1", lease_s=LEASE)
        assert queue.heartbeat(job.job_id, "w2", lease_s=LEASE) is False
        assert queue.heartbeat("job-nope", "w1") is False
        clock.advance(LEASE + 0.1)
        queue.claim(worker="w2", lease_s=LEASE)  # requeue + re-claim
        # w1 comes back from a stall: its lease is gone and the False
        # tells it to abandon the job, not finish it.
        assert queue.heartbeat(job.job_id, "w1", lease_s=LEASE) is False
        assert job.claimed_by == "w2"

    def test_stale_requeue_cannot_unseat_a_fresh_claim(self, tmp_path):
        clock = FakeClock()
        path = tmp_path / "q.jsonl"
        queue = JobQueue(path, clock=clock)
        job, _ = queue.submit([prox("tiny_a")])
        queue.claim(worker="dead", lease_s=0.0)
        clock.advance(1.0)
        fresh = queue.claim(worker="w2", lease_s=LEASE)
        assert fresh.claimed_by == "w2"
        # A slow peer also saw "dead"'s expired lease and journals its
        # requeue *after* w2's re-claim: the guard (from_worker="dead")
        # must make it a no-op.
        atomic_append_line(path, json.dumps({
            "event": "requeue", "job_id": job.job_id,
            "from_worker": "dead", "reason": "lease-expired",
            "at": clock.now,
        }))
        replayed = JobQueue(path, clock=clock, recover=False)
        assert replayed.get(job.job_id).status == "running"
        assert replayed.get(job.job_id).claimed_by == "w2"
        assert replayed.get(job.job_id).requeues == 1

    def test_stale_requeue_cannot_unseat_the_same_workers_fresh_claim(
        self, tmp_path
    ):
        # The ABA variant: worker w1 stalls past its lease, recovers,
        # and legitimately re-claims its own job (new claim epoch).  A
        # slow peer's requeue — observed against the *old* epoch —
        # lands afterwards and must be inert even though it names the
        # same worker.
        clock = FakeClock()
        path = tmp_path / "q.jsonl"
        queue = JobQueue(path, clock=clock)
        job, _ = queue.submit([prox("tiny_a")])
        queue.claim(worker="w1", lease_s=10.0)
        assert job.claim_epoch == 1
        clock.advance(11.0)
        reclaimed = queue.claim(worker="w1", lease_s=LEASE)
        assert reclaimed.claimed_by == "w1"
        assert reclaimed.claim_epoch == 2
        atomic_append_line(path, json.dumps({
            "event": "requeue", "job_id": job.job_id,
            "from_worker": "w1", "epoch": 1,
            "reason": "lease-expired", "at": clock.now,
        }))
        for reader in (queue, JobQueue(path, clock=clock, recover=False)):
            view = reader.get(job.job_id)
            assert view.status == "running"
            assert view.claimed_by == "w1"
            assert view.claim_epoch == 2

    def test_requeue_expired_returns_orphans(self, tmp_path):
        clock = FakeClock()
        queue = JobQueue(tmp_path / "q.jsonl", clock=clock)
        a, _ = queue.submit([prox("tiny_a")])
        b, _ = queue.submit([prox("tiny_b")])
        queue.claim(worker="w1", lease_s=10.0)
        queue.claim(worker="w1", lease_s=50.0)
        clock.advance(20.0)  # first lease dead, second alive
        requeued = queue.requeue_expired()
        assert [j.job_id for j in requeued] == [a.job_id]
        assert queue.get(a.job_id).status == "queued"
        assert queue.get(b.job_id).status == "running"


# -- cross-instance cooperation (two queues, one journal) ---------------


class TestSharedJournal:
    def test_second_instance_sees_submissions_and_respects_claims(
        self, tmp_path
    ):
        clock = FakeClock()
        path = tmp_path / "q.jsonl"
        q1 = JobQueue(path, clock=clock)
        q2 = JobQueue(path, clock=clock)
        job, _ = q1.submit([prox("tiny_a")])
        # q2 tails the journal: the job is visible and claimable there.
        assert q2.get(job.job_id) is not None
        assert q1.claim(worker="w1", lease_s=LEASE) is not None
        # ... but once w1's claim line is down, q2 must lose the race.
        assert q2.claim(worker="w2", lease_s=LEASE) is None
        assert q2.get(job.job_id).claimed_by == "w1"
        # Terminal events propagate the same way (reads re-tail).
        q1.complete(job.job_id, telemetry={"executed": 1})
        done = poll(q2, job.job_id, timeout=2.0)
        assert done.status == "done"
        assert done.telemetry == {"executed": 1}

    def test_racing_claim_lines_resolve_first_wins(self, tmp_path):
        # Both instances believed the job was queued and appended their
        # claims; the journal's fold order decides — for everyone.
        clock = FakeClock()
        path = tmp_path / "q.jsonl"
        queue = JobQueue(path, clock=clock)
        job, _ = queue.submit([prox("tiny_a")])
        for worker in ("w1", "w2"):
            atomic_append_line(path, json.dumps({
                "event": "claim", "job_id": job.job_id, "worker": worker,
                "at": clock.now, "lease_s": LEASE,
            }))
        for reader in (queue, JobQueue(path, clock=clock, recover=False)):
            view = reader.get(job.job_id)
            assert view.status == "running"
            assert view.claimed_by == "w1"

    def test_duplicate_submission_across_instances_joins(self, tmp_path):
        clock = FakeClock()
        path = tmp_path / "q.jsonl"
        q1 = JobQueue(path, clock=clock)
        q2 = JobQueue(path, clock=clock)
        job, outcome = q1.submit([prox("tiny_a")])
        assert outcome == "queued"
        again, outcome = q2.submit([prox("tiny_a")])
        assert outcome == "duplicate"
        assert again.job_id == job.job_id


# -- journal corruption -------------------------------------------------


class TestTornJournal:
    def test_torn_tail_is_sealed_and_later_appends_survive(self, tmp_path):
        path = tmp_path / "q.jsonl"
        queue = JobQueue(path)
        job, _ = queue.submit([prox("tiny_a")])
        torn_append(path)  # writer died mid-append
        # Recovery seals the fragment onto its own line, so this
        # append (and every later one) parses cleanly.
        survivor = JobQueue(path)
        assert survivor.get(job.job_id) is not None
        second, _ = survivor.submit([prox("tiny_b")])
        replayed = JobQueue(path)
        assert {j.job_id for j in replayed.jobs()} == {
            job.job_id, second.job_id
        }

    def test_live_queue_seals_a_peers_torn_tail_before_appending(
        self, tmp_path
    ):
        # The dangerous variant: the torn write lands while this
        # process is already running.  Its next append must not glue
        # onto the fragment (which would lose *both* lines).
        path = tmp_path / "q.jsonl"
        queue = JobQueue(path)
        first, _ = queue.submit([prox("tiny_a")])
        torn_append(path)  # a peer process dies mid-append
        second, _ = queue.submit([prox("tiny_b")])
        assert queue.get(second.job_id) is second
        replayed = JobQueue(path, recover=False)
        assert {j.job_id for j in replayed.jobs()} == {
            first.job_id, second.job_id
        }

    def test_events_from_a_newer_build_fold_without_losing_jobs(
        self, tmp_path
    ):
        # Mixed versions share one journal: unknown Job fields from a
        # newer writer must be dropped, not poison the whole event.
        path = tmp_path / "q.jsonl"
        queue = JobQueue(path)
        job, _ = queue.submit([prox("tiny_a")])
        payload = queue.get(job.job_id).to_dict()
        payload["job_id"] = "job-from-the-future"
        payload["lease_epoch"] = 7  # a field this build never heard of
        atomic_append_line(path, json.dumps(
            {"event": "submit", "job": payload}
        ))
        replayed = JobQueue(path, recover=False)
        assert replayed.get("job-from-the-future") is not None
        assert replayed.get(job.job_id) is not None

    def test_truncated_tail_replays_the_surviving_prefix(self, tmp_path):
        clock = FakeClock()
        path = tmp_path / "q.jsonl"
        queue = JobQueue(path, clock=clock)
        job, _ = queue.submit([prox("tiny_a")])
        queue.claim(worker="w1", lease_s=0.0)
        queue.complete(job.job_id)
        # Chop into the middle of the terminal event: the prefix
        # (submit + claim) must replay, and recovery requeues the
        # now-expired claim as if the done event never happened.
        truncate_tail(path, n_bytes=30)
        survivor = JobQueue(path, clock=clock)
        revived = survivor.get(job.job_id)
        assert revived is not None
        assert revived.status == "queued"
        assert revived.requeues == 1


# -- compaction under load ----------------------------------------------


class TestCompactionPreservesLeases:
    def test_compact_keeps_live_lease_and_heartbeat_state(self, tmp_path):
        clock = FakeClock()
        path = tmp_path / "q.jsonl"
        queue = JobQueue(path, clock=clock)
        job, _ = queue.submit([prox("tiny_a")])
        queue.claim(worker="w1", lease_s=LEASE)
        clock.advance(5.0)
        queue.heartbeat(job.job_id, "w1", lease_s=LEASE)
        expires = job.lease_expires_at

        assert queue.compact(ttl_s=3600.0) == 0
        assert len(path.read_text().splitlines()) == 1  # one snapshot
        # The snapshot carries the full claim: owner, heartbeat, expiry.
        replayed = JobQueue(path, clock=clock).get(job.job_id)
        assert replayed.status == "running"
        assert replayed.claimed_by == "w1"
        assert replayed.heartbeat_at == clock.now
        assert replayed.lease_expires_at == expires
        # Still w1's job: a rival cannot claim through the snapshot...
        rival = JobQueue(path, clock=clock)
        assert rival.claim(worker="w2", lease_s=LEASE) is None
        # ... until the lease actually dies.
        clock.advance(LEASE + 0.1)
        assert rival.claim(worker="w2", lease_s=LEASE) is not None

    def test_compact_under_load_does_not_disturb_the_running_job(
        self, tmp_path, monkeypatch
    ):
        import repro.service.scheduler as sched_mod

        real_run_node = sched_mod.run_node

        def slow_run_node(kind, payload):
            if kind == "eval":
                time.sleep(0.3)
            return real_run_node(kind, payload)

        monkeypatch.setattr(sched_mod, "run_node", slow_run_node)
        queue = JobQueue(tmp_path / "q.jsonl")
        store = ResultsStore(tmp_path / "exp.jsonl")
        scheduler = SweepScheduler(queue, store, poll_interval=POLL).start()
        try:
            job, _ = queue.submit([prox("tiny_a")])
            wait_until(
                lambda: queue.get(job.job_id).status == "running"
            )
            # Compaction mid-execution: the snapshot keeps the claim,
            # the tail pointer lands on the fresh inode, and the
            # scheduler's subsequent progress/done events fold cleanly.
            queue.compact(ttl_s=3600.0)
            done = wait_done(queue, job.job_id)
            assert done.status == "done"
            assert done.claimed_by == scheduler.worker_id
            assert store.get(prox("tiny_a")) is not None
        finally:
            scheduler.stop()


# -- scheduler heartbeats and lease loss --------------------------------


class TestSchedulerLeases:
    def test_heartbeats_protect_a_long_batch(self, tmp_path, monkeypatch):
        # A 1 s eval node against a 0.45 s lease: only the background
        # heartbeat tick keeps a *busy* scheduler's claim alive while a
        # hungry peer polls for work the whole time.
        import repro.service.scheduler as sched_mod

        real_run_node = sched_mod.run_node

        def slow_run_node(kind, payload):
            if kind == "eval":
                time.sleep(1.0)
            return real_run_node(kind, payload)

        monkeypatch.setattr(sched_mod, "run_node", slow_run_node)
        queue = JobQueue(tmp_path / "q.jsonl")
        store = ResultsStore(tmp_path / "exp.jsonl")
        owner = SweepScheduler(
            queue, store, poll_interval=POLL, lease_s=0.45,
            worker_id="owner",
        ).start()
        try:
            job, _ = queue.submit([prox("tiny_a")])
            wait_until(lambda: queue.get(job.job_id).status == "running")
            rival = SweepScheduler(
                queue, store, poll_interval=POLL, lease_s=0.45,
                worker_id="rival",
            ).start()
            try:
                done = wait_done(queue, job.job_id)
            finally:
                rival.stop()
            assert done.status == "done"
            assert done.claimed_by == "owner"
            assert done.requeues == 0
            assert rival.nodes_executed == 0
            assert owner.heartbeats_sent > 0
        finally:
            owner.stop()

    def test_lease_loss_abandons_the_job_cleanly(self, tmp_path):
        # Drive the scheduler's internals directly (no thread) so the
        # steal lands deterministically between activation and
        # dispatch — the stalled-scheduler window the loop handles.
        clock = FakeClock()
        queue = JobQueue(tmp_path / "q.jsonl", clock=clock)
        store = ResultsStore(tmp_path / "exp.jsonl")
        scheduler = SweepScheduler(
            queue, store, poll_interval=POLL, worker_id="stalled",
        )
        job, _ = queue.submit([prox("tiny_a")])
        scheduler._claim_all()
        assert scheduler._nodes  # planned, nothing dispatched yet
        clock.advance(scheduler.lease_s + 0.1)
        thief = queue.claim(worker="thief", lease_s=LEASE)
        assert thief.claimed_by == "thief"
        # The stalled scheduler wakes up: the job is no longer its to
        # run, so every pending node leaves its ready scan.
        scheduler._abandon_lost()
        assert scheduler._active == {}
        assert scheduler._nodes == {}
        assert scheduler._ready_batch() == []
        assert scheduler.nodes_executed == 0
        scheduler.executor.close()


# -- the acceptance chaos test ------------------------------------------


class TestCrashMidSweep:
    def test_killed_scheduler_jobs_finish_elsewhere_with_identical_records(
        self, tmp_path, monkeypatch
    ):
        specs = [prox("tiny_a"), prox("tiny_b")]

        # Reference: the same sweep, one healthy scheduler, its own
        # cache and store — what the records *should* be.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "ref_cache"))
        clear_memo()
        ref_store = ResultsStore(tmp_path / "ref.jsonl")
        ref_queue = JobQueue(tmp_path / "ref_q.jsonl")
        ref_sched = SweepScheduler(
            ref_queue, ref_store, poll_interval=POLL
        ).start()
        try:
            ref_job, _ = ref_queue.submit(specs)
            wait_done(ref_queue, ref_job.job_id)
        finally:
            ref_sched.stop()
        reference_hash = canonical_record_hash(ref_store.records())

        # Chaos half: fresh cache/store/journal; scheduler A dies hard
        # after node 2 of 4 (both layouts cached on disk, neither eval
        # journaled), holding its lease.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "chaos_cache"))
        clear_memo()
        clock = FakeClock()
        queue = JobQueue(tmp_path / "q.jsonl", clock=clock)
        store = ResultsStore(tmp_path / "exp.jsonl")
        doomed = SweepScheduler(
            queue, store, poll_interval=POLL, worker_id="doomed",
        )
        kill_after(doomed, 2)
        doomed.start()
        job, _ = queue.submit(specs)
        wait_until(lambda: doomed._crashed)
        mid = queue.get(job.job_id)
        assert not mid.done
        assert mid.claimed_by == "doomed"

        # A peer scheduler on the same journal: while the lease lives
        # it must not touch the job ...
        survivor = SweepScheduler(
            queue, store, poll_interval=POLL, worker_id="survivor",
        ).start()
        try:
            time.sleep(10 * POLL)
            assert queue.get(job.job_id).claimed_by == "doomed"
            # ... and once the lease expires, it requeues, re-plans
            # (pruning the two layouts that survived on disk) and
            # finishes the job from the same journal.
            clock.advance(doomed.lease_s + 0.1)
            done = wait_done(queue, job.job_id)
        finally:
            survivor.stop()
            doomed.stop()
        assert done.status == "done"
        assert done.claimed_by == "survivor"
        assert done.requeues == 1
        assert survivor.nodes_executed == 2  # evals only; layouts pruned

        # No lost and no duplicated records: exactly one per scenario,
        # bit-identical (canonically) to the undisturbed run.
        history = [r.scenario_hash for r in store.history()]
        assert sorted(history) == sorted(s.scenario_hash for s in specs)
        assert canonical_record_hash(store.records()) == reference_hash


# -- multi-scheduler service --------------------------------------------


class TestMultiSchedulerService:
    def test_service_hosts_n_schedulers_and_reports_leases(
        self, tmp_path, monkeypatch
    ):
        import repro.service.scheduler as sched_mod

        real_run_node = sched_mod.run_node

        def slow_run_node(kind, payload):
            if kind == "eval":
                time.sleep(0.2)
            return real_run_node(kind, payload)

        monkeypatch.setattr(sched_mod, "run_node", slow_run_node)
        service = AttackService(
            store=ResultsStore(tmp_path / "exp.jsonl"),
            queue_path=tmp_path / "q.jsonl",
            schedulers=2,
            poll_interval=POLL,
        ).start()
        try:
            health = service.health()
            assert [s["alive"] for s in health["schedulers"]] == [
                True, True,
            ]
            workers = {s["worker"] for s in health["schedulers"]}
            assert len(workers) == 2
            out = service.submit_payload({"specs": [
                prox("tiny_a").to_dict(), prox("tiny_b").to_dict(),
            ]})
            job_id = out["job"]["job_id"]
            # While the job runs, /healthz names the claimant and the
            # lease's age/expiry — the operator's view of liveness.
            lease = wait_until(
                lambda: (service.health()["leases"] or [None])[0]
            )
            assert lease["job_id"] == job_id
            assert lease["worker"] in workers
            assert lease["expires_in_s"] > 0
            wait_done(service.queue, job_id)
            assert service.health()["leases"] == []
        finally:
            service.stop()

    def test_startup_compaction_defers_to_a_live_peers_leases(
        self, tmp_path
    ):
        # A second service starting on a shared journal must not
        # rewrite it while a peer holds live leases: the os.replace
        # would eat any event the peer appends mid-rewrite.
        clock = FakeClock()
        path = tmp_path / "q.jsonl"
        peer_queue = JobQueue(path, clock=clock)
        done, _ = peer_queue.submit([prox("tiny_a")])
        peer_queue.claim(worker="peer", lease_s=0.0)
        peer_queue.complete(done.job_id)
        clock.advance(3600.0 * 48)  # the done job ages past any TTL...
        live, _ = peer_queue.submit([prox("tiny_b")])
        peer_queue.claim(worker="peer", lease_s=LEASE)  # ... lease live
        lines_before = len(path.read_text().splitlines())

        second = AttackService(
            store=ResultsStore(tmp_path / "exp.jsonl"),
            queue_path=path,
            clock=clock,
        )
        try:
            assert second.compaction_skipped is True
            assert second.compacted_jobs == 0
            assert len(path.read_text().splitlines()) == lines_before
            assert second.queue.get(live.job_id).claimed_by == "peer"
        finally:
            second.scheduler.executor.close()
            second.httpd.server_close()

    def test_two_service_processes_cooperate_on_one_journal(
        self, tmp_path
    ):
        # Two AttackService instances with *separate* JobQueue objects
        # on one journal file — exactly what two `repro serve`
        # processes look like to each other.
        store_path = tmp_path / "exp.jsonl"
        queue_path = tmp_path / "q.jsonl"
        first = AttackService(
            store=ResultsStore(store_path),
            queue_path=queue_path,
            compact_ttl_s=None,
            poll_interval=POLL,
        ).start()
        second = AttackService(
            store=ResultsStore(store_path),
            queue_path=queue_path,
            compact_ttl_s=None,
            poll_interval=POLL,
        ).start()
        try:
            client = ServiceClient(first.url, timeout=10.0)
            out = client.submit(specs=[prox("tiny_a").to_dict()])
            job_id = out["job"]["job_id"]
            # Either process may win the claim; both must agree on the
            # outcome, and the work must happen exactly once.
            view = ServiceClient(second.url, timeout=10.0).wait(
                job_id, timeout=30.0
            )
            assert view["status"] == "done"
            assert first.queue.get(job_id).claimed_by == \
                second.queue.get(job_id).claimed_by
            hashes = [
                json.loads(line)["scenario_hash"]
                for line in store_path.read_text().splitlines()
            ]
            assert hashes == [prox("tiny_a").scenario_hash]
        finally:
            second.stop()
            first.stop()
