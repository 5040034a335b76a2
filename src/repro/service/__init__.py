"""repro.service — attack-as-a-service over the sweep engine.

The subsystem turns the blocking CLI sweep into a long-running service:

* :class:`JobQueue` — persistent, priority-ordered job queue backed by
  an append-only JSONL journal (leased claims with heartbeats and
  crash-safe guarded requeue, spec-hash dedup against in-flight jobs
  and the results store, crash-resume on restart);
* :class:`SweepScheduler` — background thread that claims jobs under a
  heartbeat-renewed lease (several schedulers — threads or processes —
  cooperate on one journal; a dead claimant's jobs requeue once its
  lease expires), plans claimed jobs through
  :func:`repro.experiments.plan_sweep`, merges ready nodes *across
  jobs* (shared layout/feature/train artifacts run once even when
  submitted by different clients), dispatches batches through one
  reusable :class:`repro.pipeline.parallel.Executor`, and records
  per-node telemetry into the results store;
* :class:`AttackService` — stdlib-only HTTP API
  (``http.server.ThreadingHTTPServer``): ``POST /jobs``,
  ``GET /jobs/<id>/events`` (SSE progress stream, the one way to
  wait on a job), ``GET /jobs/<id>`` (status), ``DELETE /jobs/<id>``
  (cancellation), paginated ``GET /results`` backed by
  :meth:`repro.experiments.ResultsStore.query` push-down; the job
  journal is compacted at startup (terminal jobs past a TTL are
  dropped);
* :class:`ServiceClient` + :func:`run_load` — urllib client and load
  generator (``scripts/bench_service.py``).
"""

from .client import LoadReport, ServiceClient, run_load
from .queue import DEFAULT_COMPACT_TTL_S, DEFAULT_LEASE_S, Job, JobQueue
from .scheduler import SchedulerCrashed, SweepScheduler
from .server import AttackService

__all__ = [
    "AttackService",
    "DEFAULT_COMPACT_TTL_S",
    "DEFAULT_LEASE_S",
    "Job",
    "JobQueue",
    "LoadReport",
    "SchedulerCrashed",
    "ServiceClient",
    "SweepScheduler",
    "run_load",
]
