"""Scenario records and the shared filter vocabulary.

:class:`ScenarioRecord` is the one row type of the results subsystem:
the results store persists it, every report formatter reads it and
every HTTP response serialises it.  :func:`record_matches` is the one
filter vocabulary shared by :meth:`ResultsStore.query`, the HTTP
``/results`` endpoint and :meth:`repro.api.ResultSet.query`.

Kept apart from :mod:`repro.experiments.store`, which folds these rows
out of its journal, so the row type reads on its own.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from pathlib import Path

from .spec import ScenarioSpec

RESULTS_DIR_ENV = "REPRO_RESULTS_DIR"


@dataclass
class ScenarioRecord:
    """Outcome of evaluating one scenario."""

    scenario_hash: str
    scenario: dict  # ScenarioSpec.to_dict()
    status: str  # "ok" | "timeout"
    ccr: float | None
    runtime_s: float | None
    n_sink_fragments: int = 0
    n_source_fragments: int = 0
    hidden_pins: int = 0
    wirelength: int = 0
    train_seconds: float | None = None
    extra: dict = field(default_factory=dict)

    @property
    def spec(self) -> ScenarioSpec:
        return ScenarioSpec.from_dict(self.scenario)

    def to_dict(self) -> dict:
        # Not dataclasses.asdict: that routes every leaf through
        # copy.deepcopy and dominates the paginated-read serving path.
        # Record payloads are JSON-plain by construction, so a plain
        # container copy gives the same isolation at a fraction of the
        # cost.
        return {
            name: _plain_copy(getattr(self, name))
            for name in _RECORD_FIELDS
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioRecord":
        # Tolerate records written by other builds/tools: drop unknown
        # keys and default absent ones instead of discarding the whole
        # line on reload.  Only the scenario hash is indispensable —
        # without it the record cannot participate in latest-wins.
        known = {f.name for f in fields(cls)}
        data = {k: v for k, v in payload.items() if k in known}
        if "scenario_hash" not in data:
            raise KeyError("scenario_hash")
        data.setdefault("scenario", {})
        data.setdefault("status", "unknown")
        data.setdefault("ccr", None)
        data.setdefault("runtime_s", None)
        return cls(**data)


_RECORD_FIELDS = tuple(f.name for f in fields(ScenarioRecord))


def _plain_copy(value):
    """Deep copy of JSON-plain containers; leaves pass through."""
    if isinstance(value, dict):
        return {k: _plain_copy(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain_copy(v) for v in value]
    return value


def results_dir() -> Path:
    return Path(os.environ.get(RESULTS_DIR_ENV, "") or "results")


def record_matches(
    record: ScenarioRecord,
    design: str | None = None,
    split_layer: int | None = None,
    attack: str | None = None,
    defense_kind: str | None = None,
    tag: str | None = None,
    status: str | None = None,
) -> bool:
    """Does a record match every given filter?

    Lookups are ``.get()``-based: a foreign or partial record whose
    ``scenario`` dict lacks ``design``/``defense``/... keys simply never
    matches those filters instead of blowing up the whole query.
    """
    s = record.scenario or {}
    if design is not None and s.get("design") != design:
        return False
    if split_layer is not None and s.get("split_layer") != split_layer:
        return False
    if attack is not None and s.get("attack") != attack:
        return False
    if defense_kind is not None:
        defense = s.get("defense")
        kind = defense.get("kind") if isinstance(defense, dict) else None
        if kind != defense_kind:
            return False
    if tag is not None and tag not in (s.get("tags") or ()):
        return False
    if status is not None and record.status != status:
        return False
    return True
