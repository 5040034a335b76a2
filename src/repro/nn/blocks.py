"""Independent blocks of one computation, spread over the process's CPUs.

:func:`map_blocks` calls ``fn(a, b)`` for every ``[a, b)`` block of
``range(0, n, step)`` and returns the results in block order.  The
calling thread and ``workers - 1`` threads of a per-process pool, one
per CPU of the affinity mask, each claim the next unclaimed block until
none is left, so a thread that is slowed down runs fewer blocks.  Each
block is the same call, on the same operands, as in a serial loop, and
callers reduce the results in block order, so the pool changes no bit
of any result.  BLAS stays at one thread per call.

A call from a pool thread runs inline (a task never waits on the
pool).  After a block raises, no new block starts, and the exception
reaches the caller only after every block in flight has returned, so
no block writes into the caller's buffers after it has left.  A forked
child starts with no pool and builds its own on first use.
"""

from __future__ import annotations

import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor

_local = threading.local()


def _mark_pool_thread() -> None:
    _local.in_pool = True


class _BlockPool:
    """Worker count of one process and its lazily created executor."""

    def __init__(self, workers: int | None = None):
        if workers is None:
            workers = len(os.sched_getaffinity(0))
        self.workers = workers
        self._lock = threading.Lock()
        self._executor: ThreadPoolExecutor | None = None

    def executor(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    self.workers - 1,
                    thread_name_prefix="repro-blocks",
                    initializer=_mark_pool_thread,
                )
            return self._executor


_POOL = _BlockPool()


def _reset_after_fork() -> None:
    # The child inherits the executor object but none of its threads.
    global _POOL
    _POOL = _BlockPool(_POOL.workers)


os.register_at_fork(after_in_child=_reset_after_fork)


def map_blocks(fn, n: int, step: int) -> list:
    """``[fn(a, min(a + step, n)) for a in range(0, n, step)]``, with
    the blocks claimed one at a time by the caller and the block pool."""
    starts = range(0, n, step)
    pool = _POOL
    in_pool = getattr(_local, "in_pool", False)
    if pool.workers <= 1 or len(starts) <= 1 or in_pool:
        return [fn(a, min(a + step, n)) for a in starts]
    results = [None] * len(starts)
    claims = itertools.count()  # next() on it is atomic under the GIL
    failed = []

    def run() -> None:
        while not failed:
            i = next(claims)
            if i >= len(starts):
                return
            try:
                results[i] = fn(starts[i], min(starts[i] + step, n))
            except BaseException as err:  # repro: ignore[broad-except] recorded, then raised in the caller once every block in flight has returned
                failed.append((i, err))

    executor = pool.executor()
    futures = [
        executor.submit(run) for _ in range(min(pool.workers, len(starts)) - 1)
    ]
    run()
    for future in futures:
        future.result()
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    return results
