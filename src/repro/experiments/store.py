"""Queryable, latest-wins results store over a JSONL journal.

Every evaluated scenario lands here as one record keyed by its content
hash, so completed work is never recomputed: the sweep engine consults
the store before scheduling evaluation nodes, and the report formatters
(Table 3 / Figure 5 / defense tables) read records instead of
re-running attacks.  Re-evaluations append a new record and the
*latest* record per scenario hash wins.

Persistence is delegated to a
:class:`~repro.experiments.storage.StorageBackend`, the append-only
JSONL journal (``results/experiments.jsonl``): concurrent-writer safe
via single ``O_APPEND`` writes and reloadable incrementally
(tail-aware: a cross-process refresh costs one ``stat`` plus the new
tail, not a re-parse of the whole history).  The default location is
``results/``; relocate it with the ``REPRO_RESULTS_DIR`` environment
variable.

Queries take the shared filter vocabulary of :func:`record_matches`
plus ``limit``/``offset``/``order`` pagination, which the backend
streams without materialising the whole view; ``count`` reports the
total a paginated page was cut from.  ``to_csv`` snapshots the latest records through
the atomic temp-file + ``os.replace`` helpers.
"""

from __future__ import annotations

from pathlib import Path

from ..core.atomic import atomic_write_text
from .records import (
    RESULTS_DIR_ENV,
    ScenarioRecord,
    record_matches,
    results_dir,
)
from .spec import ScenarioSpec
from .storage import JsonlStorageBackend

__all__ = [
    "DEFAULT_FILENAME",
    "RESULTS_DIR_ENV",
    "ResultsStore",
    "ScenarioRecord",
    "record_matches",
    "results_dir",
]

DEFAULT_FILENAME = "experiments.jsonl"


class ResultsStore:
    """Latest-wins record store with a small query API.

    No ``path`` means the JSONL journal at
    ``results/experiments.jsonl`` (under ``REPRO_RESULTS_DIR`` when
    set).
    """

    def __init__(self, path: str | Path | None = None):
        if path is None:
            path = results_dir() / DEFAULT_FILENAME
        self.backend = JsonlStorageBackend(path)

    @property
    def path(self) -> Path:
        return self.backend.path

    # -- persistence ---------------------------------------------------
    def reload(self) -> int:
        """Fold in other writers' appends since the last read.

        Incremental: the backend tails the journal from its last byte
        offset (one ``stat`` when nothing changed), so cross-process
        refresh cost does not scale with history length.  Returns the number of
        newly observed records.
        """
        return self.backend.reload_tail()

    def add(self, record: ScenarioRecord) -> None:
        self.backend.append(record)

    def add_many(self, records) -> None:
        self.backend.append_many(list(records))

    def close(self) -> None:
        self.backend.close()

    # -- queries -------------------------------------------------------
    def __len__(self) -> int:
        return self.backend.count()

    def __contains__(self, scenario_hash: str) -> bool:
        return self.backend.latest(scenario_hash) is not None

    def get(self, key: str | ScenarioSpec) -> ScenarioRecord | None:
        """Latest record for a scenario hash (or a spec's hash)."""
        if isinstance(key, ScenarioSpec):
            key = key.scenario_hash
        return self.backend.latest(key)

    def records(self) -> list[ScenarioRecord]:
        """Latest record per scenario, in first-seen order."""
        return self.backend.query()

    def history(self) -> list[ScenarioRecord]:
        """Every record ever appended, oldest first."""
        return self.backend.history()

    def count(self, **filters) -> int:
        """Latest records matching the filters (no pagination) — the
        ``total`` field of the paginated HTTP responses."""
        return self.backend.count(self._filters(**filters))

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

        Filters and pagination push down into the storage backend.
        ``predicate`` cannot be pushed down;
        when given, pagination applies after it, in Python.
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
            return self.backend.query(
                filters, limit=limit, offset=offset, order=order
            )
        records = [
            r for r in self.backend.query(filters, order=order)
            if predicate(r)
        ]
        if offset:
            records = records[offset:]
        if limit is not None:
            records = records[:max(0, int(limit))]
        return records

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
