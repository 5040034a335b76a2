"""Queryable, latest-wins results store over a JSONL journal.

Every evaluated scenario lands here as one record keyed by its content
hash, so completed work is never recomputed: the sweep engine consults
the store before scheduling evaluation nodes, and the report formatters
(Table 3 / Figure 5 / defense tables) read records instead of
re-running attacks.  Re-evaluations append a new record and the
*latest* record per scenario hash wins.

Records persist as one line each in a
:class:`repro.core.journal.Journal` (``results/experiments.jsonl``),
the same append-only file the job queue folds: concurrent-writer safe
via single ``O_APPEND`` writes, a dead writer's torn last line sealed
before the next append, and reloadable incrementally (a cross-process
refresh costs one ``stat`` plus the new tail, not a re-parse of the
whole history).  The store folds the journal into its history and its
latest-wins view; a journal rewritten under it is folded again, and
one that disappears empties the view.  The default location is
``results/``; relocate it with the ``REPRO_RESULTS_DIR`` environment
variable.  An existing SQLite file is refused: SQLite stores are no
longer supported.

Queries take the shared filter vocabulary of :func:`record_matches`
plus ``limit``/``offset``/``order`` pagination, streamed without
materialising the whole view; ``count`` reports the total a paginated
page was cut from.  Every append, real fold, query and filtered count
is timed as ``repro_storage_op_seconds{backend="jsonl", op}`` (plus a
slow-op log entry and, under an ambient trace, a ``storage.<op>``
span).  ``to_csv`` snapshots the latest records through the atomic
temp-file + ``os.replace`` helpers.
"""

from __future__ import annotations

import contextlib
import threading
import time
from itertools import islice
from pathlib import Path

from ..core.atomic import atomic_write_text
from ..core.journal import Journal
from ..obs import logging as obs_logging
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from .records import (
    RESULTS_DIR_ENV,
    ScenarioRecord,
    record_matches,
    results_dir,
)
from .spec import ScenarioSpec

__all__ = [
    "DEFAULT_FILENAME",
    "RESULTS_DIR_ENV",
    "ResultsStore",
    "ScenarioRecord",
    "record_matches",
    "results_dir",
]

DEFAULT_FILENAME = "experiments.jsonl"

#: accepted values for the ``order`` query parameter: first-seen
#: scenario order, ascending or descending.
ORDERS = ("asc", "desc")

#: First bytes of every SQLite database file.
SQLITE_HEADER = b"SQLite format 3\x00"

#: the ``backend`` label of ``repro_storage_op_seconds``.
_BACKEND = "jsonl"


def _op_latency():
    return obs_metrics.histogram(
        "repro_storage_op_seconds",
        "Storage backend operation latency by backend kind and op",
        labels=("backend", "op"),
    )


def _observe(op: str, seconds: float) -> None:
    """Record one store operation: latency histogram always; slow-op
    log when over threshold; a ``storage.<op>`` span only when a trace
    is ambient (plain CLI store traffic must not churn the ring)."""
    _op_latency().labels(backend=_BACKEND, op=op).observe(seconds)
    obs_logging.get_slow_op_log().maybe_record(
        f"storage.{op}", seconds, backend=_BACKEND
    )
    if obs_trace.current_context() is not None:
        obs_trace.record_span(f"storage.{op}", seconds, backend=_BACKEND)


@contextlib.contextmanager
def timed_op(op: str):
    """Time one store operation (see :func:`_observe`)."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        _observe(op, time.perf_counter() - t0)


def check_order(order: str) -> str:
    if order not in ORDERS:
        raise ValueError(f"order must be one of {ORDERS}, got {order!r}")
    return order


def _refuse_sqlite_file(path) -> None:
    """Raise if ``path`` is an existing SQLite database: folding it
    would read 0 records, and the next append would write JSON into
    the binary file."""
    try:
        with open(path, "rb") as handle:
            head = handle.read(len(SQLITE_HEADER))
    except FileNotFoundError:
        return
    if head == SQLITE_HEADER:
        raise ValueError(
            f"{path} is a SQLite results store; SQLite stores are no "
            "longer supported (the results store is a JSONL journal)"
        )


class ResultsStore:
    """Latest-wins record store with a small query API.

    No ``path`` means the JSONL journal at
    ``results/experiments.jsonl`` (under ``REPRO_RESULTS_DIR`` when
    set).
    """

    def __init__(self, path: str | Path | None = None):
        if path is None:
            path = results_dir() / DEFAULT_FILENAME
        self.journal = Journal(path)
        _refuse_sqlite_file(self.journal.path)
        self._history: list[ScenarioRecord] = []
        self._latest: dict[str, ScenarioRecord] = {}
        # Serialises appends, folds and the query scans: two threads
        # reading the same tail would both fold it, and a scan of
        # _latest must not see a fold change its size.
        self._lock = threading.Lock()
        self.reload()

    @property
    def path(self) -> Path:
        return self.journal.path

    # -- persistence ---------------------------------------------------
    def reload(self) -> int:
        """Fold in other writers' appends since the last read.

        Incremental: the journal is tailed from its last byte offset
        (one ``stat`` when nothing changed), so cross-process refresh
        cost does not scale with history length.  Returns the number
        of newly observed records.
        """
        with self._lock:
            return self._fold_tail()

    def _fold_tail(self) -> int:
        started = time.perf_counter()
        reset, events = self.journal.tail(forget_missing=True)
        if reset:
            self._history = []
            self._latest = {}
        if events is None:
            return 0
        folded = 0
        for event in events:
            try:
                record = ScenarioRecord.from_dict(event)
            except (TypeError, KeyError):
                continue  # foreign line: appends still work
            self._history.append(record)
            self._latest[record.scenario_hash] = record
            folded += 1
        # Only real folds are timed: the nothing-changed path above is
        # one stat on every read and must stay free of bookkeeping.
        _observe("reload_tail", time.perf_counter() - started)
        return folded

    def _append(self, record: ScenarioRecord) -> None:
        with timed_op("append"), self._lock:
            self.journal.append(record.to_dict())
            # Read-back: folding our own line (and any a peer appended
            # just before it) keeps the offset a true byte position.
            self._fold_tail()

    def add(self, record: ScenarioRecord) -> None:
        self._append(record)

    def add_many(self, records) -> None:
        for record in records:
            self._append(record)

    def close(self) -> None:
        """Nothing to release: the journal holds no open handle."""

    # -- queries -------------------------------------------------------
    def __len__(self) -> int:
        return len(self._latest)

    def __contains__(self, scenario_hash: str) -> bool:
        return scenario_hash in self._latest

    def get(self, key: str | ScenarioSpec) -> ScenarioRecord | None:
        """Latest record for a scenario hash (or a spec's hash)."""
        if isinstance(key, ScenarioSpec):
            key = key.scenario_hash
        return self._latest.get(key)

    def records(self) -> list[ScenarioRecord]:
        """Latest record per scenario, in first-seen order."""
        return self._page()

    def history(self) -> list[ScenarioRecord]:
        """Every record ever appended, oldest first."""
        return list(self._history)

    def count(self, **filters) -> int:
        """Latest records matching the filters (no pagination) — the
        ``total`` field of the paginated HTTP responses."""
        filters = self._filters(**filters)
        if not filters:
            return len(self._latest)
        with timed_op("count"), self._lock:
            return sum(
                1
                for r in self._latest.values()
                if record_matches(r, **filters)
            )

    @staticmethod
    def _filters(
        design: str | None = None,
        split_layer: int | None = None,
        attack: str | None = None,
        defense_kind: str | None = None,
        tag: str | None = None,
        status: str | None = None,
    ) -> dict:
        filters = {
            "design": design,
            "split_layer": split_layer,
            "attack": attack,
            "defense_kind": defense_kind,
            "tag": tag,
            "status": status,
        }
        return {k: v for k, v in filters.items() if v is not None}

    def query(
        self,
        design: str | None = None,
        split_layer: int | None = None,
        attack: str | None = None,
        defense_kind: str | None = None,
        tag: str | None = None,
        status: str | None = None,
        predicate=None,
        limit: int | None = None,
        offset: int = 0,
        order: str = "asc",
    ) -> list[ScenarioRecord]:
        """Latest records matching every given filter, paginated.

        ``predicate`` cannot be streamed with the filters; when given,
        pagination applies after it, in Python.
        """
        filters = self._filters(
            design=design,
            split_layer=split_layer,
            attack=attack,
            defense_kind=defense_kind,
            tag=tag,
            status=status,
        )
        if predicate is None:
            return self._page(
                filters, limit=limit, offset=offset, order=order
            )
        records = [
            r for r in self._page(filters, order=order) if predicate(r)
        ]
        if offset:
            records = records[offset:]
        if limit is not None:
            records = records[:max(0, int(limit))]
        return records

    def _page(
        self,
        filters: dict | None = None,
        limit: int | None = None,
        offset: int = 0,
        order: str = "asc",
    ) -> list[ScenarioRecord]:
        """Latest records matching every filter, in first-seen scenario
        order (``order="desc"`` reverses), cut to ``limit``/``offset``."""
        check_order(order)
        with timed_op("query"), self._lock:
            # Stream instead of materialising the whole latest-wins
            # view: a shallow page must not cost O(history).
            records = (
                reversed(self._latest.values())
                if order == "desc"
                else iter(self._latest.values())
            )
            if filters:
                records = (
                    r for r in records if record_matches(r, **filters)
                )
            start = max(0, int(offset or 0))
            stop = None if limit is None else start + max(0, int(limit))
            return list(islice(records, start, stop))

    # -- exports -------------------------------------------------------
    CSV_COLUMNS = (
        "scenario_hash", "design", "split_layer", "attack", "defense_kind",
        "defense_strength", "status", "ccr", "runtime_s",
        "n_sink_fragments", "n_source_fragments", "hidden_pins",
        "wirelength", "train_seconds", "tags",
    )

    def to_csv(self, path: str | Path) -> Path:
        """Snapshot the latest records as CSV (atomic write)."""
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(self.CSV_COLUMNS)
        for record in self.records():
            s = record.scenario
            defense = s.get("defense") or {}
            writer.writerow([
                record.scenario_hash, s.get("design"), s.get("split_layer"),
                s.get("attack"), defense.get("kind"),
                defense.get("strength"),
                record.status,
                "" if record.ccr is None else f"{record.ccr:.6f}",
                "" if record.runtime_s is None else f"{record.runtime_s:.6f}",
                record.n_sink_fragments, record.n_source_fragments,
                record.hidden_pins, record.wirelength,
                "" if record.train_seconds is None
                else f"{record.train_seconds:.6f}",
                " ".join(s.get("tags") or ()),
            ])
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(path, buffer.getvalue())
        return path
