"""Fault-injection helpers for the service tests.

The lease/requeue protocol only earns its keep under *partial* failure
— a scheduler that dies mid-sweep, a clock that jumps past a lease, a
journal whose last line was torn by a crashing writer.  These helpers
make each of those failures deterministic and cheap to stage, and are
the template for every future service test:

* :class:`FakeClock` — injectable time source for ``JobQueue(clock=)``;
  lease expiry becomes ``clock.advance(...)`` instead of sleeping.
* :func:`kill_after` — arms a scheduler to die hard after executing N
  nodes: the loop thread exits via
  :class:`repro.service.SchedulerCrashed`, heartbeats stop, nothing
  terminal is journaled — indistinguishable, journal-wise, from
  ``kill -9`` on the whole process.
* :func:`torn_append` / :func:`truncate_tail` — corrupt the journal
  the two ways a crashing writer can: a partial line with no newline,
  and a tail chopped mid-line.
* :func:`canonical_record_hash` — content hash of a record list with
  the wall-clock-dependent fields stripped, for comparing a chaos
  run's output against an undisturbed one.
* :func:`wait_until` — bounded real-time poll for conditions that a
  background thread flips (a crash flag, a claim appearing).
"""

from __future__ import annotations

import hashlib
import json
import os
import time

from repro.service import SchedulerCrashed


class FakeClock:
    """Deterministic, manually-advanced time source.

    Pass to ``JobQueue(clock=...)`` (schedulers inherit the queue's
    clock for their timestamps); leases then expire exactly when the
    test says so.  Threads still *sleep* on real time — the fake clock
    only decides what "now" means for lease math and timestamps.
    """

    def __init__(self, start: float = 1_700_000_000.0):
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> float:
        self.now += seconds
        return self.now


def kill_after(scheduler, n_nodes: int) -> dict:
    """Arm ``scheduler`` to die hard after executing ``n_nodes`` nodes.

    The crash lands *after* the fatal node's durable effects (disk
    cache write, store record) but *before* its progress or any
    terminal event is journaled — the gnarliest crash point, since the
    journal now under-reports what actually survived.  Returns a
    mutable ``{"executed": int}`` view of the node count.
    """
    state = {"executed": 0}

    def hook(node, value, seconds):
        state["executed"] += 1
        if state["executed"] >= n_nodes:
            raise SchedulerCrashed(
                f"chaos: killed at node {state['executed']} ({node.kind})"
            )

    scheduler.on_node = hook
    return state


def torn_append(path, fragment: str = '{"event": "submit", "job": {"jo') \
        -> None:
    """Append a torn line — truncated JSON, **no** trailing newline —
    as a writer dying mid-``write(2)`` would leave it."""
    with open(path, "ab") as handle:
        handle.write(fragment.encode("utf-8"))


def truncate_tail(path, n_bytes: int) -> int:
    """Chop the last ``n_bytes`` off the journal (a lost tail after a
    crash + filesystem rollback); returns the new size."""
    size = max(0, os.path.getsize(path) - n_bytes)
    os.truncate(path, size)
    return size


def canonical_record_hash(records) -> str:
    """Content hash over records with wall-clock-only fields stripped.

    Accepts :class:`ScenarioRecord` objects or their dicts; sorts by
    scenario hash so scheduler interleaving cannot affect the digest.
    """
    payloads = []
    for record in records:
        payload = dict(
            record if isinstance(record, dict) else record.to_dict()
        )
        payload.pop("runtime_s", None)
        payload.pop("train_seconds", None)
        extra = dict(payload.get("extra") or {})
        extra.pop("telemetry", None)  # node seconds / job ids per run
        payload["extra"] = extra
        payloads.append(payload)
    payloads.sort(key=lambda p: p["scenario_hash"])
    canonical = json.dumps(payloads, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def wait_until(predicate, timeout: float = 30.0, interval: float = 0.01):
    """Poll ``predicate`` on real time until truthy; raises on timeout."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise TimeoutError(f"condition not reached in {timeout}s: {predicate}")
