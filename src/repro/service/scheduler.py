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
* it keeps one *merged* node table across all of its active jobs —
  node keys are content-derived, so two jobs wanting the same layout,
  feature warm-up or trained model share a single node, and a node
  already executed earlier in the process never runs again;
* every iteration it dispatches the batch of ready nodes (all deps
  satisfied, across every active job at once) through one long-lived
  :class:`repro.pipeline.parallel.Executor`, highest job priority
  first;
* per-node wall-clock lands in the job's telemetry and, for evaluation
  nodes, in the stored record's ``extra["telemetry"]`` — the same shape
  :func:`repro.experiments.run_sweep` writes.

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
    NodeKey,
    PlanNode,
    SweepPlan,
    attach_node_telemetry,
    plan_sweep,
    run_node,
)
from ..experiments.store import ResultsStore, ScenarioRecord
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


def _safe_node(kind: str, payload: tuple):
    """``run_node`` that reports failure instead of raising, so one bad
    node cannot take down an executor batch shared across jobs."""
    try:
        return (*run_node(kind, payload), None)
    except Exception:  # repro: ignore[broad-except] failure returns as data (traceback string) for the scheduler to triage
        return kind, None, 0.0, traceback.format_exc(limit=8)


class _ActiveJob:
    def __init__(self, job: Job, plan: SweepPlan):
        self.job = job
        self.plan = plan
        self.remaining: set[NodeKey] = set(plan.nodes)
        self.node_seconds: dict[str, float] = {}
        self.executed = 0
        # Span bookkeeping: the job's trace id rides in the journal
        # (survives scheduler death); the root span id is minted here
        # so node spans can reference their parent before it is
        # recorded (the root lands when the job finishes).
        self.trace_id = job.trace_id or obs_trace.new_trace_id()
        self.root_span_id = obs_trace.new_span_id()
        self.started_perf = time.perf_counter()
        self.started_at = time.time()


class SweepScheduler:
    """One leased dispatcher thread over a shared :class:`JobQueue`."""

    def __init__(
        self,
        queue: JobQueue,
        store: ResultsStore,
        workers: int | None = None,
        executor: Executor | None = None,
        poll_interval: float = 0.25,
        progress=None,
        store_lock: threading.Lock | None = None,
        worker_id: str | None = None,
        lease_s: float = DEFAULT_LEASE_S,
        on_node=None,
        on_job_event=None,
    ):
        self.queue = queue
        self.store = store
        self.poll_interval = poll_interval
        self.progress = progress or (lambda message: None)
        self.worker_id = worker_id or (
            f"sched-{os.getpid():x}-{next(_WORKER_IDS):x}"
        )
        self.lease_s = float(lease_s)
        #: called after each node's effects land (record stored, memo
        #: updated) and *before* its progress is journaled.  Raising
        #: :class:`SchedulerCrashed` here simulates dying mid-sweep at
        #: exactly that node — the fault-injection seam.
        self.on_node = on_node
        #: optional observer ``(job_id, kind, message, data)`` fired on
        #: per-job lifecycle moments (node done, progress counters,
        #: done/failed) — the feed behind the service's SSE streaming
        #: endpoint.  Observer errors are swallowed: a broken watcher
        #: must never take the dispatch loop down.
        self.on_job_event = on_job_event
        self._owns_executor = executor is None
        if executor is None:
            executor = sweep_executor(workers)
        self.executor = executor
        # Readers of the store (HTTP query handlers) and this thread's
        # writes share one lock so query snapshots are never torn.
        self.store_lock = store_lock or threading.Lock()

        #: one trace per scheduler instance groups its batch spans —
        #: per-job spans live in each job's own journaled trace.
        self.trace_id = obs_trace.new_trace_id()
        self.started_monotonic = time.monotonic()

        self._active: dict[str, _ActiveJob] = {}
        # _nodes/_owners hold only not-yet-executed nodes of active
        # jobs; _done is the process-lifetime memo of executed keys
        # (small: one tuple per artifact ever built).
        self._nodes: dict[NodeKey, PlanNode] = {}
        self._owners: dict[NodeKey, list[str]] = {}
        self._done: set[NodeKey] = set()
        self._failed: dict[NodeKey, str] = {}
        self.nodes_executed = 0
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
                with self.store_lock:
                    plan = plan_sweep(
                        job.specs_objects(), store=self.store, resume=True
                    )
        except Exception:  # repro: ignore[broad-except] failure is journaled via queue.fail below; bad specs must not kill the thread
            error = traceback.format_exc(limit=8)
            self.queue.fail(job.job_id, error)
            self._emit(job.job_id, "failed", error, error=error)
            _scheduler_metrics()[4].labels(outcome="failed").inc()
            return
        active = _ActiveJob(job, plan)
        active.trace_id = trace_id
        active.root_span_id = root_span_id
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
        # A node that already failed this process poisons the whole job
        # — check before registering anything so no orphan nodes are
        # left behind for the ready scan to dispatch.
        for key in plan.nodes:
            if key in self._failed:
                self.queue.fail(job.job_id, self._failed[key])
                self._emit(
                    job.job_id, "failed", self._failed[key],
                    error=self._failed[key],
                )
                return
        for key, node in plan.nodes.items():
            if key in self._done:
                # Executed for an earlier job in this process; the
                # artifact is on disk / in the store already.
                active.remaining.discard(key)
            else:
                self._nodes.setdefault(key, node)
                self._owners.setdefault(key, []).append(job.job_id)
        self.queue.progress(
            job.job_id,
            nodes_done=len(plan.nodes) - len(active.remaining),
            nodes_total=len(plan.nodes),
            reused=len(plan.reused),
        )
        self._emit(
            job.job_id, "progress",
            f"planned: {len(active.remaining)} nodes to run, "
            f"{len(plan.reused)} scenarios from store",
            nodes_done=len(plan.nodes) - len(active.remaining),
            nodes_total=len(plan.nodes),
            reused=len(plan.reused),
            trace_id=trace_id,
        )
        self.progress(
            f"job {job.job_id}: {len(active.remaining)} nodes to run, "
            f"{len(plan.reused)} scenarios from store"
        )
        if active.remaining:
            self._active[job.job_id] = active
        else:
            self._finish(active)

    def _ready_batch(self) -> list[PlanNode]:
        ready = []
        for key, node in self._nodes.items():
            if key in self._done or key in self._failed:
                continue
            if all(
                dep in self._done or dep not in self._nodes
                for dep in node.deps
            ):
                ready.append(node)
        # Highest-priority owner first; insertion order breaks ties.
        def priority(node: PlanNode) -> int:
            owners = self._owners.get(node.key, ())
            return max(
                (
                    self._active[j].job.priority
                    for j in owners
                    if j in self._active
                ),
                default=0,
            )

        ready.sort(key=priority, reverse=True)
        return ready

    def _run_batch(self, batch: list[PlanNode]) -> None:
        nodes_total, node_seconds, batch_size = _scheduler_metrics()[:3]
        batch_size.observe(len(batch))
        log_event(
            "batch_dispatch", worker=self.worker_id, nodes=len(batch),
            trace_id=self.trace_id,
        )
        # The batch span lives in the scheduler's own trace (a batch
        # serves many jobs at once); per-job node spans are recorded
        # into each owner's trace below.
        with obs_trace.span(
            "scheduler.batch",
            trace_id=self.trace_id,
            worker=self.worker_id,
            nodes=len(batch),
        ):
            outcomes = self.executor.map(
                _safe_node,
                [(node.kind, node.payload) for node in batch],
                label="service nodes",
            )
        for node, (kind, value, seconds, error) in zip(batch, outcomes):
            if error is not None:
                nodes_total.labels(kind=node.kind, outcome="error").inc()
                for job_id in self._owners.get(node.key, ()):
                    active = self._active.get(job_id)
                    if active is not None:
                        obs_trace.record_span(
                            f"node.{node.kind}", seconds,
                            trace_id=active.trace_id,
                            parent_id=active.root_span_id,
                            status="error",
                            kind=node.kind, worker=self.worker_id,
                        )
                self._failed[node.key] = error
                self._fail_owners(node.key, error)
                continue
            nodes_total.labels(kind=kind, outcome="ok").inc()
            node_seconds.labels(kind=kind).observe(seconds)
            log_event(
                "node_done", kind=kind, seconds=round(seconds, 6),
                worker=self.worker_id,
                jobs=list(self._owners.get(node.key, ())),
                trace_id=self.trace_id,
            )
            for job_id in self._owners.get(node.key, ()):
                active = self._active.get(job_id)
                if active is not None:
                    obs_trace.record_span(
                        f"node.{kind}", seconds,
                        trace_id=active.trace_id,
                        parent_id=active.root_span_id,
                        kind=kind, worker=self.worker_id,
                    )
            self._done.add(node.key)
            self.nodes_executed += 1
            if kind == "eval":
                record = ScenarioRecord.from_dict(value)
                owners = [
                    j for j in self._owners.get(node.key, ())
                    if j in self._active
                ]
                plan = (
                    self._active[owners[0]].plan if owners
                    else SweepPlan(specs=[])
                )
                attach_node_telemetry(record, seconds, plan)
                record.extra["telemetry"]["job_ids"] = owners
                if owners:
                    record.extra["telemetry"]["trace_id"] = (
                        self._active[owners[0]].trace_id
                    )
                with self.store_lock:
                    self.store.add(record)
            if self.on_node is not None:
                # After the node's durable effects, before its progress
                # is journaled: a SchedulerCrashed raised here leaves
                # the journal exactly as a mid-sweep kill would.
                self.on_node(node, seconds)
            for job_id in self._owners.get(node.key, ()):
                if job_id in self._active:
                    self._emit(
                        job_id, "node",
                        f"{node.kind} node done in {seconds:.2f}s",
                        node_kind=node.kind, key=repr(node.key),
                        seconds=seconds,
                    )
            self._advance(node.key, seconds)
            # Executed nodes leave the ready-scan tables; the _done
            # memo is all later plans need, and the scan stays
            # O(outstanding) instead of O(everything ever run).
            self._nodes.pop(node.key, None)
            self._owners.pop(node.key, None)

    def _advance(self, key: NodeKey, seconds: float) -> None:
        for job_id in self._owners.get(key, ()):
            active = self._active.get(job_id)
            if active is None or key not in active.remaining:
                continue
            active.remaining.discard(key)
            active.executed += 1
            active.node_seconds[repr(key)] = seconds
            total = len(active.plan.nodes)
            self.queue.progress(
                job_id,
                nodes_done=total - len(active.remaining),
                nodes_total=total,
                reused=len(active.plan.reused),
            )
            self._emit(
                job_id, "progress",
                f"{total - len(active.remaining)}/{total} nodes",
                nodes_done=total - len(active.remaining),
                nodes_total=total,
                reused=len(active.plan.reused),
            )
            if not active.remaining:
                self._finish(active)

    def _drop_cancelled(self) -> None:
        """Deactivate jobs cancelled through the queue.

        Their not-yet-dispatched nodes leave the ready scan (nodes
        shared with other live jobs keep running); nodes already in a
        dispatched batch finish, but `_advance` ignores inactive jobs
        so a cancelled job never progresses or completes.
        """
        cancelled = [
            job_id
            for job_id in self._active
            if (job := self.queue.get(job_id)) is not None
            and job.status == "cancelled"
        ]
        for job_id in cancelled:
            active = self._active.pop(job_id)
            self._disown(job_id)
            self.progress(
                f"job {job_id}: cancelled "
                f"({len(active.remaining)} pending nodes dropped)"
            )
        if cancelled:
            self._prune_unreachable()

    def _abandon_lost(self) -> None:
        """Deactivate jobs whose lease is no longer ours.

        A lease can slip away two ways: the heartbeat tick flagged it
        (``_lost``), or the loop itself observes the job requeued /
        re-claimed by a peer.  Either way the re-claimant owns the job
        now — drop its nodes from our scan exactly like a cancellation
        (shared nodes survive for jobs we still hold).
        """
        lost = set(self._lost)
        self._lost.difference_update(lost)
        for job_id in list(self._active):
            if job_id in lost:
                continue
            job = self.queue.get(job_id)
            if job is not None and not job.done and (
                job.status != "running"
                or job.claimed_by != self.worker_id
            ):
                lost.add(job_id)
        dropped = False
        for job_id in lost:
            active = self._active.pop(job_id, None)
            if active is None:
                continue  # finished between the flag and this pass
            dropped = True
            self._disown(job_id)
            self.progress(
                f"job {job_id}: lease lost to another scheduler "
                f"({len(active.remaining)} pending nodes abandoned)"
            )
        if dropped:
            self._prune_unreachable()

    def _disown(self, job_id: str) -> None:
        for owners in self._owners.values():
            if job_id in owners:
                owners.remove(job_id)

    def _fail_owners(self, key: NodeKey, error: str) -> None:
        for job_id in list(self._owners.get(key, ())):
            active = self._active.pop(job_id, None)
            if active is not None:
                self.queue.fail(job_id, error)
                self._emit(job_id, "failed", error, error=error)
                self._record_job_span(active, status="error")
                _scheduler_metrics()[4].labels(outcome="failed").inc()
        self._prune_unreachable()

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

    def _prune_unreachable(self) -> None:
        # Nodes no remaining active job wants (transitively) must leave
        # the ready scan, or it would re-dispatch work nobody is
        # waiting for.
        wanted = {
            k
            for active in self._active.values()
            for k in active.remaining
        }
        closure = set(wanted)
        changed = True
        while changed:
            changed = False
            for k in list(closure):
                node = self._nodes.get(k)
                if node is None:
                    continue
                for dep in node.deps:
                    if dep in self._nodes and dep not in closure:
                        closure.add(dep)
                        changed = True
        for k in list(self._nodes):
            if k not in closure and k not in self._done:
                del self._nodes[k]
                self._owners.pop(k, None)

    def _finish(self, active: _ActiveJob) -> None:
        self._active.pop(active.job.job_id, None)
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
