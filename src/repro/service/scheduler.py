"""Async scheduler: queued jobs -> merged DAG batches -> executor.

One scheduler thread owns one slice of the execution side of the
service — several can run at once, in one process or many, sharing a
single journal:

* it claims queued jobs under a *lease* (a time-bounded, journaled
  claim; see :class:`repro.service.queue.JobQueue`) and plans each
  through :func:`repro.experiments.plan_sweep` (so the store and every
  disk cache prune work exactly as they do for the CLI);
* a background heartbeat thread renews its leases every
  ``lease_s / 3`` seconds, so a scheduler blocked inside a long
  executor batch never loses its jobs; a scheduler that *dies* stops
  heartbeating, its leases expire, and any peer observing the expired
  lease requeues and re-claims the job — crash recovery without a
  restart;
* it is the engine's one DAG driver
  (:class:`repro.experiments.engine.SweepDriver`, which ``run_sweep``
  drains once per call) kept for the thread's lifetime, so one node
  table spans all of its active jobs — two jobs wanting the same
  layout, feature warm-up or trained model share a single node, and a
  node it already executed never runs again;
* every iteration it dispatches the batch of ready nodes (across every
  active job at once) through one long-lived
  :class:`repro.pipeline.parallel.Executor`, highest job priority
  first; as each node completes its record is stored (telemetry plus
  the owning ``job_ids``), its ``node`` event published and its jobs'
  progress journaled.

This module adds only the service's part to the driver: claims,
leases, heartbeats, cancel and abandon, journaled progress, job spans
and priority.

Node failures are contained: the failing node's owners fail with the
error in their journal entry; unrelated jobs keep running.  Cancelled
jobs (``JobQueue.cancel`` / ``DELETE /jobs/<id>``) are deactivated on
the next loop iteration: their pending nodes never dispatch, while
nodes shared with other live jobs keep running for those owners.  A
job whose lease was lost (requeued from under us after a stall) is
*abandoned* the same way — the peer that re-claimed it owns it now;
node effects are idempotent (content-keyed cache writes, latest-wins
store records), so the overlap is harmless.

Fault injection: the per-node ``on_node`` hook may raise
:class:`SchedulerCrashed` to simulate a hard death — the loop thread
exits immediately, heartbeats stop, and nothing further is journaled,
which is exactly what a killed process looks like to its peers.  The
chaos tests (``tests/service/chaos.py``) drive recovery through this
seam.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
import traceback

from ..experiments.engine import (
    PlanOwner,
    SweepDriver,
    node_event,
    plan_sweep,
    run_node,
)
from ..experiments.store import ResultsStore
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..obs.logging import log_event
from ..pipeline.parallel import Executor, sweep_executor
from .queue import DEFAULT_LEASE_S, Job, JobQueue


def _scheduler_metrics():
    return (
        obs_metrics.counter(
            "repro_scheduler_nodes_total",
            "DAG nodes executed by kind and outcome",
            labels=("kind", "outcome"),
        ),
        obs_metrics.histogram(
            "repro_scheduler_node_seconds",
            "Per-node in-worker wall-clock by node kind",
            labels=("kind",),
        ),
        obs_metrics.histogram(
            "repro_scheduler_batch_size",
            "Ready nodes dispatched per executor batch",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
        ),
        obs_metrics.counter(
            "repro_scheduler_cache_hits_total",
            "Plan-time cache hits by source (pruned artifact kinds, "
            "plus 'store' for scenarios resolved from the results store)",
            labels=("kind",),
        ),
        obs_metrics.counter(
            "repro_scheduler_jobs_total",
            "Jobs finished by this process's schedulers, by outcome",
            labels=("outcome",),
        ),
    )


class SchedulerCrashed(RuntimeError):
    """Raised by a fault-injection ``on_node`` hook to kill a scheduler
    dead: no terminal events, no further heartbeats, leases left to
    expire — the scenario the lease protocol exists to survive."""


#: distinguishes schedulers within one process; the pid distinguishes
#: processes, so default worker ids are unique across a shared journal.
_WORKER_IDS = itertools.count()


class _ActiveJob(PlanOwner):
    def __init__(self, job: Job, plan, trace_id: str, root_span_id: str):
        # Span bookkeeping: the job's trace id rides in the journal
        # (survives scheduler death); the root span id is minted before
        # planning so node spans can reference their parent before it
        # is recorded (the root lands when the job finishes).
        super().__init__(job.job_id, plan, trace_id, root_span_id)
        self.job = job
        self.priority = job.priority
        self.started_perf = time.perf_counter()
        self.started_at = time.time()


class SweepScheduler(SweepDriver):
    """One leased dispatcher thread over a shared :class:`JobQueue`."""

    def __init__(
        self,
        queue: JobQueue,
        store: ResultsStore,
        workers: int | None = None,
        executor: Executor | None = None,
        poll_interval: float = 0.25,
        progress=None,
        worker_id: str | None = None,
        lease_s: float = DEFAULT_LEASE_S,
        on_node=None,
        on_job_event=None,
    ):
        super().__init__(
            executor if executor is not None else sweep_executor(workers),
            store,
            on_node=on_node,
        )
        self.queue = queue
        self.poll_interval = poll_interval
        self.progress = progress or (lambda message: None)
        self.worker_id = worker_id or (
            f"sched-{os.getpid():x}-{next(_WORKER_IDS):x}"
        )
        self.lease_s = float(lease_s)
        #: ``on_node(node, value, seconds)`` is called after each
        #: node's effects land (record stored, memo updated) and
        #: *before* its progress is journaled.  Raising
        #: :class:`SchedulerCrashed` there simulates dying mid-sweep at
        #: exactly that node — the fault-injection seam.
        #: optional observer ``(job_id, kind, message, data)`` fired on
        #: per-job lifecycle moments (node done, progress counters,
        #: done/failed) — the feed behind the service's SSE streaming
        #: endpoint.  Observer errors are swallowed: a broken watcher
        #: must never take the dispatch loop down.
        self.on_job_event = on_job_event
        self._owns_executor = executor is None

        #: one trace per scheduler instance groups its batch spans —
        #: per-job spans live in each job's own journaled trace.
        self.trace_id = obs_trace.new_trace_id()
        self.started_monotonic = time.monotonic()

        self.heartbeats_sent = 0
        self.last_heartbeat_at = 0.0
        #: monotonic stamp of the last sign of life from either thread
        #: (loop iteration or heartbeat tick) — what the SLO engine's
        #: scheduler-staleness rule reads.  A scheduler wedged inside a
        #: long executor batch still ticks through its heartbeat
        #: thread, so staleness only grows when the scheduler is
        #: genuinely dead or the process is starved.
        self.last_activity_monotonic = time.monotonic()

        #: job ids whose lease the heartbeat thread found gone; the
        #: loop abandons them on its next iteration.
        self._lost: set[str] = set()
        #: jobs claimed but still inside plan_sweep — heartbeated like
        #: active ones, or a slow plan would forfeit the fresh lease.
        self._planning: set[str] = set()
        self._crashed = False
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._hb_thread: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "SweepScheduler":
        if self._thread is not None:
            raise RuntimeError("scheduler already started")
        self._thread = threading.Thread(
            target=self._loop, name=f"repro-{self.worker_id}", daemon=True
        )
        self._thread.start()
        self._hb_thread = threading.Thread(
            target=self._heartbeat_loop,
            name=f"repro-{self.worker_id}-hb",
            daemon=True,
        )
        self._hb_thread.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        self._stop.set()
        with self.queue.changed:
            self.queue.changed.notify_all()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None
        if self._hb_thread is not None:
            self._hb_thread.join(timeout)
            self._hb_thread = None
        if self._owns_executor:
            self.executor.close()

    @property
    def alive(self) -> bool:
        """Is the loop thread still dispatching?  False after a crash
        (simulated or real) even though :meth:`stop` was never called —
        what ``/healthz`` reports per scheduler."""
        return (
            self._thread is not None
            and self._thread.is_alive()
            and not self._crashed
        )

    @property
    def active_jobs(self) -> int:
        return len(self._active)

    @property
    def node_throughput(self) -> float:
        """Nodes executed per second of scheduler lifetime (``/healthz``)."""
        uptime = max(time.monotonic() - self.started_monotonic, 1e-9)
        return self.nodes_executed / uptime

    @property
    def idle(self) -> bool:
        return not self._active and not self.queue.pending()

    @property
    def staleness_s(self) -> float:
        """Seconds since this scheduler last showed a sign of life."""
        return max(0.0, time.monotonic() - self.last_activity_monotonic)

    # -- heartbeats ----------------------------------------------------
    def _heartbeat_loop(self) -> None:
        # Renew well inside the lease window; the floor keeps a tiny
        # test lease from turning this thread into a busy spin.
        interval = max(self.lease_s / 3.0, 0.02)
        while not self._stop.wait(interval):
            if self._crashed:
                return  # a dead scheduler does not heartbeat
            self._heartbeat_tick()

    def _heartbeat_tick(self) -> None:
        self.last_activity_monotonic = time.monotonic()
        self._renew_leases()

    def _renew_leases(self) -> None:
        """Renew every active lease; flag the ones we lost.

        Runs off the loop thread on purpose: a scheduler blocked inside
        a long executor batch — or still planning a freshly claimed
        job — keeps its leases alive, so peers never steal work from a
        scheduler that is merely busy.
        """
        for job_id in set(self._planning) | set(self._active):
            if self.queue.heartbeat(
                job_id, self.worker_id, lease_s=self.lease_s
            ):
                self.heartbeats_sent += 1
                self.last_heartbeat_at = self.queue.clock()
                continue
            job = self.queue.get(job_id)
            if job is not None and not job.done:
                # Requeued from under us (and possibly re-claimed):
                # the loop must abandon it, not finish it.
                self._lost.add(job_id)
        # Surface peers' expired leases promptly so some scheduler's
        # next claim pass (possibly ours) picks the orphans up.
        self.queue.requeue_expired()

    # -- main loop -----------------------------------------------------
    def _loop(self) -> None:
        try:
            while not self._stop.is_set():
                self.last_activity_monotonic = time.monotonic()
                # Read the change counter before the claim pass: a
                # submit that lands between the pass and the wait
                # below has already notified, so only an unchanged
                # counter may wait (else the wakeup would be lost).
                seen = self.queue.changes
                self._abandon_lost()
                self._claim_all()
                self._drop_cancelled()
                batch = self._ready_batch()
                if batch:
                    self._run_batch(batch)
                    continue
                with self.queue.changed:
                    if (
                        not self._stop.is_set()
                        and self.queue.changes == seen
                    ):
                        self.queue.changed.wait(self.poll_interval)
        except SchedulerCrashed:
            self._crashed = True  # fault injection: die silently
        except BaseException:
            self._crashed = True  # real bug: die loudly, leases expire
            raise

    def _emit(self, job_id: str, kind: str, message: str = "", **data):
        if self.on_job_event is None:
            return
        active = self._active.get(job_id)
        if active is not None:
            data.setdefault("trace_id", active.trace_id)
        try:
            self.on_job_event(job_id, kind, message, dict(data))
        except Exception as err:
            # Observers must never take the dispatch loop down, but a
            # throwing observer is a bug worth a structured breadcrumb.
            log_event(
                "observer_error", job_id=job_id, kind=kind,
                error=repr(err),
            )

    def _claim_all(self) -> None:
        while not self._stop.is_set():
            job = self.queue.claim(
                worker=self.worker_id, lease_s=self.lease_s
            )
            if job is None:
                return
            self._activate(job)

    def _activate(self, job: Job) -> None:
        self._planning.add(job.job_id)
        try:
            self._activate_planned(job)
        finally:
            self._planning.discard(job.job_id)

    def _activate_planned(self, job: Job) -> None:
        trace_id = job.trace_id or obs_trace.new_trace_id()
        root_span_id = obs_trace.new_span_id()
        try:
            # Plan under the job's trace, parented to its (future) root
            # span: the storage ops plan_sweep performs become children
            # of job.plan automatically via the ambient context.
            with obs_trace.attach(
                obs_trace.SpanContext(trace_id, root_span_id)
            ), obs_trace.span(
                "job.plan", job_id=job.job_id, worker=self.worker_id
            ):
                plan = plan_sweep(
                    job.specs_objects(), store=self.store, resume=True
                )
        except Exception:  # repro: ignore[broad-except] failure is journaled via queue.fail below; bad specs must not kill the thread
            error = traceback.format_exc(limit=8)
            self.queue.fail(job.job_id, error)
            self._emit(job.job_id, "failed", error, error=error)
            _scheduler_metrics()[4].labels(outcome="failed").inc()
            return
        active = _ActiveJob(job, plan, trace_id, root_span_id)
        cache_hits = _scheduler_metrics()[3]
        for kind, n in plan.pruned.items():
            cache_hits.labels(kind=kind).inc(n)
        if plan.reused:
            cache_hits.labels(kind="store").inc(len(plan.reused))
        log_event(
            "job_planned", job_id=job.job_id, worker=self.worker_id,
            nodes=len(plan.nodes), reused=len(plan.reused),
            trace_id=trace_id,
        )
        # A node that already failed here poisons the whole job; nodes
        # executed for an earlier job are on disk / in the store already.
        failure = self._admit(active)
        if failure is not None:
            error = failure[1]
            self.queue.fail(job.job_id, error)
            self._emit(job.job_id, "failed", error, error=error)
            return
        self._progressed(active)
        self.progress(
            f"job {job.job_id}: {len(active.remaining)} nodes to run, "
            f"{len(plan.reused)} scenarios from store"
        )
        if not active.remaining:
            self._finish(active)

    def _run_batch(self, batch) -> None:
        _scheduler_metrics()[2].observe(len(batch))
        log_event(
            "batch_dispatch", worker=self.worker_id, nodes=len(batch),
            trace_id=self.trace_id,
        )
        # The batch span lives in the scheduler's own trace (a batch
        # serves many jobs at once); per-job node spans land in each
        # owner's trace.  ``run_node`` is this module's name, read per
        # batch, so tests can slow nodes down by patching it here.
        with obs_trace.span(
            "scheduler.batch",
            trace_id=self.trace_id,
            worker=self.worker_id,
            nodes=len(batch),
        ):
            super()._run_batch(batch, run_node)

    def _node_settled(self, node, seconds, failure, owners) -> None:
        nodes_total, node_seconds = _scheduler_metrics()[:2]
        if failure is not None:
            nodes_total.labels(kind=node.kind, outcome="error").inc()
            return
        nodes_total.labels(kind=node.kind, outcome="ok").inc()
        node_seconds.labels(kind=node.kind).observe(seconds)
        log_event(
            "node_done", kind=node.kind, seconds=round(seconds, 6),
            worker=self.worker_id,
            jobs=[owner.owner_id for owner in owners],
            trace_id=self.trace_id,
        )

    def _eval_record(self, value, seconds, owners):
        record = super()._eval_record(value, seconds, owners)
        record.extra["telemetry"]["job_ids"] = [
            owner.owner_id for owner in owners
        ]
        return record

    def _progressed(self, active: _ActiveJob, node=None, seconds=0.0):
        """Journal and publish the job's node counters: once when it
        is planned (no ``node``), then as each of its nodes settles."""
        total, reused = len(active.plan.nodes), len(active.plan.reused)
        done = total - len(active.remaining)
        if node is None:
            message = (
                f"planned: {len(active.remaining)} nodes to run, "
                f"{reused} scenarios from store"
            )
        else:
            self._emit(active.owner_id, "node", **node_event(node, seconds))
            message = f"{done}/{total} nodes"
        self.queue.progress(
            active.owner_id, nodes_done=done, nodes_total=total,
            reused=reused,
        )
        self._emit(
            active.owner_id, "progress", message, nodes_done=done,
            nodes_total=total, reused=reused, trace_id=active.trace_id,
        )

    def _drop_cancelled(self) -> None:
        """Deactivate jobs cancelled through the queue.

        Their not-yet-dispatched nodes leave the ready scan (nodes
        shared with other live jobs keep running); nodes already in a
        dispatched batch finish, but settle only for active jobs, so a
        cancelled job never progresses or completes.
        """
        cancelled = [
            job_id
            for job_id in self._active
            if (job := self.queue.get(job_id)) is not None
            and job.status == "cancelled"
        ]
        for active in self._drop(cancelled):
            self.progress(
                f"job {active.owner_id}: cancelled "
                f"({len(active.remaining)} pending nodes dropped)"
            )

    def _abandon_lost(self) -> None:
        """Deactivate jobs whose lease is no longer ours.

        A lease can slip away two ways: the heartbeat tick flagged it
        (``_lost``), or the loop itself observes the job requeued /
        re-claimed by a peer.  Either way the re-claimant owns the job
        now — drop its nodes from our scan exactly like a cancellation
        (shared nodes survive for jobs we still hold).  A flagged job
        that finished in the meantime is no longer active: skipped.
        """
        lost = set(self._lost)
        self._lost.difference_update(lost)
        for job_id in list(self._active):
            job = self.queue.get(job_id)
            if job is not None and not job.done and (
                job.status != "running"
                or job.claimed_by != self.worker_id
            ):
                lost.add(job_id)
        for active in self._drop(lost):
            self.progress(
                f"job {active.owner_id}: lease lost to another scheduler "
                f"({len(active.remaining)} pending nodes abandoned)"
            )

    def _owner_failed(self, active: _ActiveJob, failure) -> None:
        error = failure[1]
        self.queue.fail(active.owner_id, error)
        self._emit(active.owner_id, "failed", error, error=error)
        self._record_job_span(active, status="error")
        _scheduler_metrics()[4].labels(outcome="failed").inc()

    def _record_job_span(self, active: _ActiveJob, status: str) -> None:
        """The job's root span, recorded at its terminal moment — every
        node/plan span already referenced its pinned id."""
        obs_trace.record_span(
            "job.run",
            time.perf_counter() - active.started_perf,
            trace_id=active.trace_id,
            span_id=active.root_span_id,
            parent_id=None,
            started_at=active.started_at,
            status=status,
            job_id=active.job.job_id,
            worker=self.worker_id,
            executed=active.executed,
        )

    def _finish(self, active: _ActiveJob) -> None:
        super()._finish(active)
        self._record_job_span(active, status="ok")
        _scheduler_metrics()[4].labels(outcome="done").inc()
        self.queue.complete(
            active.job.job_id,
            telemetry={
                "executed": active.executed,
                "reused": len(active.plan.reused),
                "node_seconds": active.node_seconds,
                "planned": active.plan.counts(),
                "cache_hits": dict(active.plan.pruned),
                "started_at": active.started_at,
                "trace_id": active.trace_id,
            },
        )
        self._emit(
            active.job.job_id, "done",
            f"done ({active.executed} nodes executed)",
            executed=active.executed,
            reused=len(active.plan.reused),
        )
        self.progress(
            f"job {active.job.job_id}: done "
            f"({active.executed} nodes executed)"
        )
