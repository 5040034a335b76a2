"""Append-only JSONL storage backend with tail-aware reloads.

The results store's persistence format: one JSON line per record,
appended with single ``O_APPEND`` writes (see
:func:`repro.core.atomic.atomic_append_line`) so concurrent appenders
interleave whole lines, never bytes.

Reloads are *incremental*, borrowed from the job queue's journal
tailing (:mod:`repro.service.queue`): the backend tracks the byte
offset and inode it has folded so far, so picking up another process's
appends costs one ``stat`` plus a read of just the new tail — not a
re-parse of the whole history, which is what made the old
``ResultsStore.reload()`` O(history) on every cross-process done-job
check.  A rewritten file (new inode, or shrunk) triggers a full
re-fold; a torn trailing line (a writer died mid-append) is left
unfolded until its newline lands.

Writes are append-then-read-back: :meth:`append` folds its own line in
through :meth:`reload_tail`, so lines a peer process appended just
before ours are observed in order and the offset stays a true byte
position.
"""

from __future__ import annotations

import json
import os
import threading
from itertools import islice

from ...core.atomic import atomic_append_line
from ..records import ScenarioRecord, record_matches
from .base import StorageBackend, check_order, timed_op


#: First bytes of every SQLite database file.
SQLITE_HEADER = b"SQLite format 3\x00"


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


class JsonlStorageBackend(StorageBackend):
    """Latest-wins view folded from an append-only JSONL journal."""

    kind = "jsonl"

    def __init__(self, path):
        super().__init__(path)
        _refuse_sqlite_file(self.path)
        self._history: list[ScenarioRecord] = []
        self._latest: dict[str, ScenarioRecord] = {}
        self._offset = 0  # journal bytes folded so far
        self._ino = -1  # detects rewrites (os.replace / truncation)
        # Serialises folds: two threads reading the same tail would
        # both advance the offset and skip lines appended after it.
        self._fold_lock = threading.Lock()
        self.reload_tail()

    # -- journal fold --------------------------------------------------
    def _reset(self) -> None:
        self._history = []
        self._latest = {}
        self._offset = 0
        self._ino = -1

    def reload_tail(self) -> int:
        """Fold lines appended since the last read (one ``stat`` when
        nothing changed); full re-fold when the file was rewritten."""
        with self._fold_lock:
            return self._fold_tail()

    def _fold_tail(self) -> int:
        try:
            stat = os.stat(self.path)
        except OSError:
            if self._offset:
                self._reset()  # file vanished: empty view
            return 0
        if stat.st_ino != self._ino or stat.st_size < self._offset:
            self._reset()
            self._ino = stat.st_ino
        if stat.st_size <= self._offset:
            return 0
        # Only real folds are timed: the nothing-changed path above is
        # one stat on every read and must stay free of bookkeeping.
        with timed_op(self.kind, "reload_tail"):
            with open(self.path, "rb") as handle:
                handle.seek(self._offset)
                chunk = handle.read()
            complete = chunk.rfind(b"\n")
            if complete < 0:
                return 0  # torn tail in progress: fold it once it lands
            folded = 0
            for raw in chunk[:complete].split(b"\n"):
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    record = ScenarioRecord.from_dict(json.loads(raw))
                except (json.JSONDecodeError, TypeError, KeyError,
                        UnicodeDecodeError):
                    continue  # torn/foreign line: appends still work
                self._history.append(record)
                self._latest[record.scenario_hash] = record
                folded += 1
            self._offset += complete + 1
        return folded

    # -- writes --------------------------------------------------------
    def append(self, record: ScenarioRecord) -> None:
        with timed_op(self.kind, "append"):
            self.path.parent.mkdir(parents=True, exist_ok=True)
            atomic_append_line(
                self.path, json.dumps(record.to_dict(), sort_keys=True)
            )
            # Read-back: folding our own line (and any a peer appended
            # just before it) keeps the offset a true byte position.
            self.reload_tail()

    # -- reads ---------------------------------------------------------
    def latest(self, scenario_hash: str) -> ScenarioRecord | None:
        return self._latest.get(scenario_hash)

    def history(self) -> list[ScenarioRecord]:
        return list(self._history)

    def query(
        self,
        filters: dict | None = None,
        limit: int | None = None,
        offset: int = 0,
        order: str = "asc",
    ) -> list[ScenarioRecord]:
        check_order(order)
        with timed_op(self.kind, "query"):
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

    def count(self, filters: dict | None = None) -> int:
        if not filters:
            return len(self._latest)
        with timed_op(self.kind, "count"):
            return sum(
                1
                for r in self._latest.values()
                if record_matches(r, **filters)
            )
