"""The :class:`StorageBackend` protocol behind :class:`ResultsStore`.

A storage backend persists :class:`~repro.experiments.records.ScenarioRecord`
rows with *latest-wins* semantics: appends accumulate history, and the
most recent record per scenario hash is the one queries serve.  The
implementation is
:class:`~repro.experiments.storage.jsonl.JsonlStorageBackend`, the
append-only JSONL journal; the protocol is the seam a different store
would plug into.

All query methods speak the one filter vocabulary of
:func:`~repro.experiments.records.record_matches` (``design``,
``split_layer``, ``attack``, ``defense_kind``, ``tag``, ``status``),
so the store facade, the HTTP ``/results`` endpoint and the API client
can push filters and pagination down without caring what is
underneath.  The conformance suite
(``tests/experiments/test_storage_backends.py``) pins those semantics.
"""

from __future__ import annotations

import contextlib
import time
from pathlib import Path

from ...obs import logging as obs_logging
from ...obs import metrics as obs_metrics
from ...obs import trace as obs_trace
from ..records import ScenarioRecord

#: accepted values for the ``order`` query parameter: first-seen
#: scenario order, ascending or descending.
ORDERS = ("asc", "desc")


def _op_latency():
    return obs_metrics.histogram(
        "repro_storage_op_seconds",
        "Storage backend operation latency by backend kind and op",
        labels=("backend", "op"),
    )


@contextlib.contextmanager
def timed_op(backend_kind: str, op: str, **detail):
    """Time one backend operation: latency histogram always; slow-op
    log when over threshold; a ``storage.<op>`` span only when a trace
    is ambient (plain CLI store traffic must not churn the ring)."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        dt = time.perf_counter() - t0
        _op_latency().labels(backend=backend_kind, op=op).observe(dt)
        obs_logging.get_slow_op_log().maybe_record(
            f"storage.{op}", dt, backend=backend_kind, **detail
        )
        if obs_trace.current_context() is not None:
            obs_trace.record_span(
                f"storage.{op}", dt, backend=backend_kind, **detail
            )


def check_order(order: str) -> str:
    if order not in ORDERS:
        raise ValueError(f"order must be one of {ORDERS}, got {order!r}")
    return order


class StorageBackend:
    """Persistence strategy for scenario records (latest-wins)."""

    #: the ``backend`` label of ``repro_storage_op_seconds``.
    kind = "backend"

    def __init__(self, path: str | Path):
        self.path = Path(path)

    # -- writes --------------------------------------------------------
    def append(self, record: ScenarioRecord) -> None:
        """Durably append one record; it becomes the latest for its
        scenario hash."""
        raise NotImplementedError

    def append_many(self, records: list[ScenarioRecord]) -> None:
        """Append a batch (backends may override to amortise fsyncs)."""
        for record in records:
            self.append(record)

    # -- reads ---------------------------------------------------------
    def latest(self, scenario_hash: str) -> ScenarioRecord | None:
        """The most recently appended record for a scenario hash."""
        raise NotImplementedError

    def history(self) -> list[ScenarioRecord]:
        """Every record ever appended, oldest first."""
        raise NotImplementedError

    def query(
        self,
        filters: dict | None = None,
        limit: int | None = None,
        offset: int = 0,
        order: str = "asc",
    ) -> list[ScenarioRecord]:
        """Latest records matching every filter, in first-seen scenario
        order (``order="desc"`` reverses), paginated by
        ``limit``/``offset``."""
        raise NotImplementedError

    def count(self, filters: dict | None = None) -> int:
        """Number of latest records matching the filters (the ``total``
        a paginated query reports)."""
        raise NotImplementedError

    def reload_tail(self) -> int:
        """Fold in records other writers appended since the last read;
        returns how many were picked up."""
        raise NotImplementedError

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Release handles; further use is undefined."""
