"""Wall-clock time-outs for baseline attacks.

The paper caps every attack at 100 000 s and reports "N/A" where the
network-flow attack exceeds it.  Our scaled harness does the same with
a scaled budget.  Two enforcement strategies:

* **SIGALRM** — interrupts pure-Python code (networkx is pure Python)
  on the main thread of Unix processes: cheap and in-process;
* **forked subprocess** — everywhere else (non-main threads, platforms
  without ``SIGALRM``): the callable runs in a forked child that is
  *terminated* at the deadline, so the budget is enforced rather than
  merely observed; the child's return value (or exception) is shipped
  back over a pipe.  Executor pool workers run nodes on their own main
  thread and take the SIGALRM path; the fork path serves the attack
  service's scheduler threads, which run serial batches in-thread.

Only if neither strategy is available (no ``fork`` start method, e.g.
Windows) does the call degrade to run-to-completion with an after-the-
fact ``timed_out`` flag.
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable


class Timeout(Exception):
    pass


@dataclass
class TimedResult:
    value: Any  # None when timed out
    seconds: float
    timed_out: bool


def run_with_timeout(fn: Callable[[], Any], limit_s: float) -> TimedResult:
    """Run ``fn`` with an enforced wall-clock budget."""
    start = time.perf_counter()
    can_alarm = (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not can_alarm:
        return _run_in_subprocess(fn, limit_s, start)

    def _handler(signum, frame):
        raise Timeout()

    old_handler = signal.signal(signal.SIGALRM, _handler)
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        value = fn()
        timed_out = False
    except Timeout:
        value = None
        timed_out = True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old_handler)
    return TimedResult(value, time.perf_counter() - start, timed_out)


def _subprocess_target(conn, fn: Callable[[], Any]) -> None:
    try:
        result: tuple[str, Any] = ("ok", fn())
    except BaseException as exc:  # repro: ignore[broad-except] the exception IS the result, shipped to the parent over the pipe
        result = ("err", exc)
    try:
        conn.send(result)
    except Exception:  # repro: ignore[broad-except] unpicklable payloads become a picklable error for the parent
        conn.send(("err", RuntimeError(f"unpicklable result: {result[1]!r}")))
    finally:
        conn.close()


def _run_in_subprocess(
    fn: Callable[[], Any], limit_s: float, start: float
) -> TimedResult:
    """Enforce the budget by terminating a forked child at the deadline.

    ``fork`` keeps closures callable without pickling; the *result*
    still crosses a pipe and must be picklable.
    """
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # no fork on this platform: observe-only fallback
        value = fn()
        elapsed = time.perf_counter() - start
        return TimedResult(
            value if elapsed <= limit_s else None, elapsed, elapsed > limit_s
        )

    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_subprocess_target, args=(child_conn, fn))
    proc.start()
    child_conn.close()
    try:
        if parent_conn.poll(limit_s):
            try:
                status, payload = parent_conn.recv()
            except (EOFError, OSError):
                # Child died without reporting (OOM-killed, segfault,
                # external kill): record the cell as failed rather than
                # aborting the whole harness run.
                proc.join()
                return TimedResult(None, time.perf_counter() - start, True)
            proc.join()
            if status == "err":
                raise payload
            return TimedResult(payload, time.perf_counter() - start, False)
        proc.terminate()
        proc.join()
        return TimedResult(None, time.perf_counter() - start, True)
    finally:
        parent_conn.close()
