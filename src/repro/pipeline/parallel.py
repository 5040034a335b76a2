"""Multi-process fan-out for the experiment pipeline.

The DAG sweep engine (:mod:`repro.experiments.engine`) runs each batch
of ready plan nodes — layout, features, train and eval nodes — as
independent jobs whose only shared state is the deterministic disk
cache of :mod:`repro.pipeline.flow` (layouts as DEF text, trained
models as npz, feature tensors under ``features/``).  That makes
process-level parallelism safe: every worker recomputes-or-loads
through the same cache keys, and cache writes are atomic, so the
fan-out needs no locks and produces results identical to a serial run.

Knobs
-----
* ``workers=`` on :class:`Executor`, on :class:`repro.api.Client`
  (local backend, and the scheduler of an auto-spawned service) and
  the CLI ``--workers`` flags;
* ``REPRO_WORKERS`` environment variable — the default when
  ``workers`` is None (unset/empty means serial);
* ``workers=0`` means "one per CPU core".

Serial execution (``workers`` resolving to 1) never spawns processes,
so the default behaviour and test determinism are unchanged.  Sweeps
build their executor with :func:`sweep_executor`, which also runs
serially when the disk cache is disabled.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Sequence

from ..core.artifacts import cache_root
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace

__all__ = ["Executor", "resolve_workers", "sweep_executor"]


def _batch_metrics():
    return (
        obs_metrics.counter(
            "repro_executor_jobs_total",
            "Jobs run through Executor.map by execution mode",
            labels=("mode",),
        ),
        obs_metrics.histogram(
            "repro_executor_dispatch_seconds",
            "Time from batch entry until all jobs are submitted "
            "(serial: the whole in-process run)",
            labels=("mode",),
        ),
        obs_metrics.histogram(
            "repro_executor_wait_seconds",
            "Time spent gathering batch results after dispatch",
            labels=("mode",),
        ),
    )


def _square_probe(x: int) -> int:
    """Picklable no-op job used by tests and worker health checks."""
    return x * x


def resolve_workers(workers: int | None = None) -> int:
    """Effective worker count: explicit arg > $REPRO_WORKERS > serial.

    ``0`` (from either source) expands to the CPU count.
    """
    if workers is None:
        env = os.environ.get("REPRO_WORKERS", "").strip()
        if not env:
            return 1
        try:
            workers = int(env)
        except ValueError:
            raise ValueError(
                f"REPRO_WORKERS must be an integer, got {env!r}"
            ) from None
    if workers == 0:
        return os.cpu_count() or 1
    return max(1, workers)


def _mp_context():
    """Prefer fork (cheap, inherits warm in-memory caches) when present."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-Unix platforms
        return multiprocessing.get_context()


class Executor:
    """Reusable fan-out handle: one process pool across many ``map`` calls.

    A long-running caller (the attack service dispatches hundreds of
    small node batches) must not pay a pool start-up per batch, so an
    :class:`Executor` resolves its worker count once and keeps the
    pool alive until :meth:`close`.  With an effective worker count of
    1 it never creates a pool at all, so serial behaviour and
    determinism match the plain in-process path exactly.

    Usable as a context manager.  Not thread-safe for concurrent
    ``map`` calls; callers serialise dispatch (the service scheduler
    dispatches from a single thread).
    """

    def __init__(self, workers: int | None = None):
        self.n_workers = resolve_workers(workers)
        self._pool: ProcessPoolExecutor | None = None

    def _get_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.n_workers, mp_context=_mp_context()
            )
        return self._pool

    def map(
        self,
        fn: Callable[..., Any],
        jobs: Sequence[tuple],
        on_result: Callable[[Any], None] | None = None,
    ) -> list[Any]:
        """Run ``fn(*job)`` for every job, preserving job order;
        ``on_result(result)`` fires for each in job order as soon as it
        is in hand (serially: before the next job starts)."""
        jobs = list(jobs)
        n_workers = min(self.n_workers, max(len(jobs), 1))
        mode = "serial" if n_workers <= 1 else "pool"
        jobs_total, dispatch_s, wait_s = _batch_metrics()
        jobs_total.labels(mode=mode).inc(len(jobs))
        t0 = time.perf_counter()
        if n_workers <= 1:
            results = []
            for job in jobs:
                results.append(fn(*job))
                if on_result:
                    on_result(results[-1])
            # Serial runs have no dispatch/gather split: the whole run
            # is "dispatch" and the wait is zero by construction.
            dt = time.perf_counter() - t0
            dispatch_s.labels(mode=mode).observe(dt)
            wait_s.labels(mode=mode).observe(0.0)
            self._record_batch(len(jobs), mode, dt, dt)
            return results
        pool = self._get_pool()
        futures = [pool.submit(fn, *job) for job in jobs]
        dispatched = time.perf_counter()
        dispatch_s.labels(mode=mode).observe(dispatched - t0)
        results = []
        for future in futures:
            results.append(future.result())
            if on_result:
                on_result(results[-1])
        done = time.perf_counter()
        wait_s.labels(mode=mode).observe(done - dispatched)
        self._record_batch(len(jobs), mode, done - t0, dispatched - t0)
        return results

    @staticmethod
    def _record_batch(
        n_jobs: int, mode: str, total_s: float, dispatch_s: float,
    ) -> None:
        """Synthesize an ``executor.batch`` span under the ambient trace
        (if any) — the batch body runs in worker processes, so its span
        can only be recorded after the fact."""
        if obs_trace.current_context() is None:
            return
        obs_trace.record_span(
            "executor.batch",
            total_s,
            n_jobs=n_jobs,
            mode=mode,
            dispatch_s=round(dispatch_s, 6),
        )

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def sweep_executor(workers: int | None = None) -> Executor:
    """An :class:`Executor` for DAG sweeps.

    Sweep workers share artifacts only through the disk cache, so with
    the cache disabled (``REPRO_CACHE_DIR=``) there is no coordination
    medium and the sweep runs serially whatever ``workers`` says.
    """
    n_workers = resolve_workers(workers)
    if cache_root() is None:
        n_workers = 1
    return Executor(n_workers)
