"""Pluggable execution backends behind :class:`repro.api.Client`.

A backend turns a list of :class:`~repro.experiments.spec.ScenarioSpec`
into :class:`~repro.experiments.store.ScenarioRecord` rows.  Both
implementations speak the same tiny interface (``start`` / ``run`` /
``cancel`` / ``close``) and report through the same
:mod:`repro.api.events` vocabulary, so callers choose an execution
strategy without changing a line of calling code:

* :class:`LocalBackend` — the DAG sweep engine in this process, through
  one reusable :class:`~repro.pipeline.parallel.Executor`: serial and
  deterministic by default, multi-process with ``workers`` /
  ``REPRO_WORKERS``;
* :class:`ServiceBackend` — submits to an
  :class:`~repro.service.server.AttackService` over HTTP, auto-spawning
  an in-process service when no URL is given; jobs are persistent,
  deduped and cancellable on the service side.

Every backend produces records through the same planner and evaluator
(:mod:`repro.experiments.engine`), so the payloads are identical across
backends — the parity test in ``tests/api`` hash-compares them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..core.artifacts import cache_root
from ..experiments.engine import node_event, run_sweep
from ..experiments.store import ResultsStore, ScenarioRecord
from ..obs import trace as obs_trace
from ..obs.logging import log_event
from ..pipeline.parallel import Executor, sweep_executor

#: Job lifecycle states, mirroring the service queue's vocabulary.
TERMINAL_STATES = ("done", "failed", "cancelled")


class BackendError(RuntimeError):
    """A backend could not execute or finish a job."""


class JobCancelled(BackendError):
    """The awaited job was cancelled before it produced results."""


@dataclass
class BackendOutcome:
    """What a backend hands back for one finished job."""

    records: list[ScenarioRecord]
    executed: int | None = None
    reused: int | None = None
    train_seconds: dict = field(default_factory=dict)
    trace_id: str | None = None


class Backend:
    """Execution-strategy interface consumed by :class:`~repro.api.Client`.

    ``start`` is the non-blocking kickoff (only the service backend
    does real work there); ``run`` blocks until the job is terminal and
    returns a :class:`BackendOutcome`; ``cancel`` attempts to stop a
    job that has not finished.  Backends are context managers —
    ``close`` releases pools / spawned services, and further use of a
    closed backend's resources raises (silently recreating a worker
    pool or a whole service would leak it).
    """

    name = "backend"
    closed = False

    def start(self, job) -> None:
        """Kick the job off without blocking (may be a no-op)."""

    def run(self, job, timeout: float | None = None) -> BackendOutcome:
        """Block until the job is terminal.

        ``timeout`` bounds the service backend's wait on the job's
        event stream (the job keeps running server-side after a
        :class:`TimeoutError`); the local backend executes the sweep in
        this call and is not preemptible, so it ignores it.
        """
        raise NotImplementedError

    def cancel(self, job) -> bool:
        """Best-effort cancellation; True when it took effect."""
        if job.status == "queued":
            job.status = "cancelled"
            job._emit("cancelled", "cancelled before execution")
            return True
        return False

    def close(self) -> None:
        """Release held resources (executor pools, spawned services)."""
        self.closed = True

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class LocalBackend(Backend):
    """In-process execution through the DAG sweep engine.

    One executor is created lazily from ``workers`` (or
    ``REPRO_WORKERS``; ``0`` = all cores) and reused across every job
    this backend runs, exactly like the attack service's scheduler
    reuses its pool.  With one worker (the default) no process pool is
    ever started: the plan's ready batches run in the calling process,
    bit-identical run to run.
    """

    name = "local"

    def __init__(
        self, store: ResultsStore | None = None, workers: int | None = None
    ):
        self.store = store
        self.workers = workers
        self._executor: Executor | None = None

    def _get_executor(self) -> Executor:
        if self.closed:
            raise BackendError("backend has been closed")
        if self._executor is None:
            self._executor = sweep_executor(self.workers)
        return self._executor

    def run(self, job, timeout: float | None = None) -> BackendOutcome:
        if job.status == "cancelled":
            raise JobCancelled(f"job {job.job_id or ''} was cancelled")
        executor = self._get_executor()
        job.status = "running"

        def progress(message: str) -> None:
            job._emit("message", message)

        def on_node(node, value, seconds: float) -> None:
            job._emit("node", **node_event(node, seconds))

        if cache_root() is None and any(
            spec.attack == "dl" for spec in job.specs
        ):
            # Without a disk cache nothing persists between runs (the
            # in-process memo still shares one training per layer and
            # config across this sweep's evaluation nodes).
            progress(
                "disk cache disabled (REPRO_CACHE_DIR is empty): "
                "trained models and feature tensors are not persisted "
                "across runs"
            )
        try:
            # One root span per job so every engine/storage span of this
            # run shares a trace id, which the events then carry.
            with obs_trace.span("api.job", backend=self.name) as root:
                result = run_sweep(
                    job.specs,
                    store=self.store,
                    resume=job.resume,
                    progress=progress,
                    on_node=on_node,
                    executor=executor,
                )
        except Exception as err:
            job.status = "failed"
            job.error = str(err)
            job._emit("failed", job.error)
            raise
        job._emit(
            "progress",
            f"{result.executed} evaluated, {result.reused} from store",
            nodes_done=result.executed,
            reused=result.reused,
            trace_id=root.trace_id,
        )
        return BackendOutcome(
            records=result.records,
            executed=result.executed,
            reused=result.reused,
            train_seconds=dict(result.train_seconds),
            trace_id=root.trace_id,
        )

    def close(self) -> None:
        super().close()
        if self._executor is not None:
            self._executor.close()
            self._executor = None


class ServiceBackend(Backend):
    """Execution through an :class:`~repro.service.server.AttackService`.

    With ``url`` the backend talks to an already-running service; with
    ``url=None`` it spawns an in-process service on an ephemeral port
    at first use and stops it on :meth:`close`.  Jobs submitted here
    are persistent (journal-backed), deduped against in-flight jobs and
    the service's results store, and cancellable while queued or
    running (``DELETE /jobs/<id>``).

    Progress arrives by consuming the service's ``/jobs/<id>/events``
    SSE stream — every scheduler-side ``node``/``progress`` event lands
    in the job's ``on_event`` callback push-fashion, no polling loop.
    A stream that breaks or ends before the terminal event raises
    :class:`BackendError`; the job keeps running server-side.
    """

    name = "service"

    def __init__(
        self,
        url: str | None = None,
        store: ResultsStore | None = None,
        workers: int | None = None,
        queue_path=None,
        timeout: float = 30.0,
        schedulers: int = 1,
    ):
        self.url = url
        self.store = store
        self.workers = workers
        self.queue_path = queue_path
        self.timeout = timeout
        #: scheduler threads for an auto-spawned service (ignored with
        #: a remote url — the remote operator chose its own count).
        self.schedulers = schedulers
        self._service = None  # spawned AttackService, when we own one
        self._client = None

    def _get_client(self):
        if self.closed:
            raise BackendError("backend has been closed")
        if self._client is None:
            from ..service.client import ServiceClient

            if self.url is None:
                from ..service.server import AttackService

                self._service = AttackService(
                    port=0,
                    store=self.store,
                    queue_path=self.queue_path,
                    workers=self.workers,
                    schedulers=self.schedulers,
                ).start()
                self.url = self._service.url
            self._client = ServiceClient(self.url, timeout=self.timeout)
        return self._client

    # -- lifecycle -----------------------------------------------------
    def start(self, job) -> None:
        if not job.resume:
            raise BackendError(
                "the service backend always resumes from the service's "
                "results store; use the local backend for "
                "resume=False (--fresh) runs"
            )
        client = self._get_client()
        # Grid submissions travel by name when the params survive JSON,
        # so the service journals the grid provenance
        # (source={"grid": ...}) and expands with its own registry —
        # same as a curl submission.  Params carrying live objects
        # (e.g. an AttackConfig) fall back to the expanded spec dicts.
        payload: dict = {"priority": job.priority}
        if job.grid is not None:
            try:
                json.dumps(job.params)
            except TypeError:
                payload["specs"] = [s.to_dict() for s in job.specs]
            else:
                payload["grid"] = job.grid
                payload["params"] = job.params
        else:
            payload["specs"] = [s.to_dict() for s in job.specs]
        out = client.submit(**payload)
        view = out["job"]
        job.job_id = view["job_id"]
        job.outcome = out["outcome"]
        job.status = view["status"]
        job._emit(
            "submitted",
            f"{job.outcome}: {job.job_id} ({view['n_scenarios']} scenarios)",
            outcome=job.outcome,
            n_scenarios=view["n_scenarios"],
        )

    def run(self, job, timeout: float | None = None) -> BackendOutcome:
        if job.job_id is None:
            self.start(job)
        client = self._get_client()
        return self._finish(job, self._run_streaming(job, client, timeout))

    def _run_streaming(self, job, client, timeout: float | None):
        """Consume ``/jobs/<id>/events`` until the terminal event.

        Forwards ``node``/``progress``/``message`` events into the
        job's ``on_event`` stream as they arrive (no polling loop);
        skips the stream's ``submitted`` snapshot (:meth:`start`
        already emitted it) and the terminal event itself
        (:meth:`_finish` / ``Job.wait`` own terminal reporting).
        Returns the job's final view; raises :class:`BackendError` when
        the stream breaks or ends before the terminal event.
        """
        terminal = False
        try:
            for event in client.events(job.job_id, timeout=timeout):
                kind = event.get("kind")
                data = event.get("data") or {}
                if kind in TERMINAL_STATES:
                    job.status = kind
                    terminal = True
                    break
                if kind in ("node", "progress", "message"):
                    job.status = "running"
                    job._emit(kind, event.get("message", ""), **data)
        except TimeoutError:
            raise TimeoutError(f"job {job.job_id} still {job.status}") \
                from None
        except Exception as err:
            # Broken transport (proxy stripping the stream, socket
            # error): the job is still running server-side.
            log_event(
                "event_stream_error", job_id=job.job_id, error=repr(err)
            )
            raise BackendError(
                f"event stream for job {job.job_id} broke: {err}"
            ) from err
        if not terminal:
            raise BackendError(
                f"event stream for job {job.job_id} ended before the "
                "job finished (service shutting down?)"
            )
        return client.job(job.job_id)

    def _finish(self, job, view) -> BackendOutcome:
        job.status = view["status"]
        if view["status"] == "failed":
            job.error = view.get("error") or "job failed"
            job._emit("failed", job.error)
            raise BackendError(f"job {job.job_id} failed: {job.error}")
        if view["status"] == "cancelled":
            job._emit("cancelled", "cancelled on the service")
            raise JobCancelled(f"job {job.job_id} was cancelled")
        by_hash = {
            r["scenario_hash"]: ScenarioRecord.from_dict(r)
            for r in view.get("records", [])
        }
        missing = [
            s.scenario_hash for s in job.specs
            if s.scenario_hash not in by_hash
        ]
        if missing:
            raise BackendError(
                f"job {job.job_id} finished but is missing records for "
                f"{missing}"
            )
        return BackendOutcome(
            records=[by_hash[s.scenario_hash] for s in job.specs],
            reused=view.get("reused"),
            trace_id=(view.get("telemetry") or {}).get("trace_id"),
        )

    def cancel(self, job) -> bool:
        if job.status in TERMINAL_STATES:
            return job.status == "cancelled"
        if job.job_id is None:
            return super().cancel(job)
        return self.cancel_id(job.job_id, job=job)

    def cancel_id(self, job_id: str, job=None) -> bool:
        """Cancel a service job by id (``repro submit --cancel``)."""
        view = self._get_client().cancel(job_id)
        cancelled = view.get("outcome") == "cancelled"
        if job is not None:
            job.status = view["job"]["status"]
            if cancelled:
                job._emit("cancelled", "cancelled on the service")
        return cancelled

    def close(self) -> None:
        super().close()
        if self._service is not None:
            self._service.stop()
            self._service = None
            self.url = None  # we owned the endpoint; it is gone
        self._client = None


BACKENDS = {
    LocalBackend.name: LocalBackend,
    ServiceBackend.name: ServiceBackend,
}
