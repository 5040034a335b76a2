"""Attack accuracy metrics.

The headline metric is the paper's correct connection rate (Eq. 1):

    CCR = sum_i c_i * x_i / sum_i c_i

where ``c_i`` is the number of sinks in the i-th sink fragment and
``x_i`` is 1 when the selected VPP for that fragment is the true one.
Additional list-based metrics mirror the candidate-list evaluation the
paper uses to criticise Zhang et al. [9].
"""

from __future__ import annotations

import contextvars
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

from .split import SplitLayout


@dataclass(frozen=True)
class AttackResult:
    """The outcome of any attack: per-sink-fragment source selections.

    ``extra`` holds what the attack reported about its own ceiling
    while selecting (see :func:`report_extra`), e.g. the DL attack's
    candidate recall; the sweep engine copies it into the record.
    """

    design: str
    split_layer: int
    assignment: dict[int, int]  # sink fragment id -> chosen source fragment id
    runtime_s: float = 0.0
    attack_name: str = "unknown"
    extra: dict = field(default_factory=dict)


_EXTRA: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "repro_attack_extra", default=None
)


@contextmanager
def collect_extra() -> Iterator[dict]:
    """Collect every :func:`report_extra` call of the body into one dict
    (for the ``AttackResult`` the body's ``select`` produces)."""
    extra: dict = {}
    token = _EXTRA.set(extra)
    try:
        yield extra
    finally:
        _EXTRA.reset(token)


def report_extra(**values) -> None:
    """Report diagnostics from inside an attack's ``select``; a no-op
    outside :func:`collect_extra`, so a bare ``select`` call keeps no
    state anywhere (attacks are shared between threads)."""
    extra = _EXTRA.get()
    if extra is not None:
        extra.update(values)


def ccr(split: SplitLayout, assignment: dict[int, int]) -> float:
    """Correct connection rate (Eq. 1) in percent.

    Sink fragments absent from ``assignment`` count as incorrect — the
    attacker restored none of their sinks.
    """
    total = 0
    correct = 0
    for frag in split.sink_fragments:
        total += frag.n_sinks
        chosen = assignment.get(frag.fragment_id)
        if chosen is not None and split.truth.get(frag.fragment_id) == chosen:
            correct += frag.n_sinks
    if total == 0:
        return 100.0  # nothing was hidden; the attacker knows everything
    return 100.0 * correct / total


def fragment_accuracy(split: SplitLayout, assignment: dict[int, int]) -> float:
    """Unweighted fraction of sink fragments matched correctly, percent."""
    frags = split.sink_fragments
    if not frags:
        return 100.0
    correct = sum(
        1
        for f in frags
        if assignment.get(f.fragment_id) == split.truth.get(f.fragment_id)
    )
    return 100.0 * correct / len(frags)


def candidate_list_recall(
    split: SplitLayout, candidate_lists: dict[int, list[int]]
) -> float:
    """Fraction of sink fragments whose true source is in their candidate
    list (the [9]-style metric; their lists were huge, ours are <= n)."""
    frags = split.sink_fragments
    if not frags:
        return 100.0
    hit = sum(
        1
        for f in frags
        if split.truth.get(f.fragment_id)
        in candidate_lists.get(f.fragment_id, [])
    )
    return 100.0 * hit / len(frags)


def mean_candidate_list_size(candidate_lists: dict[int, list[int]]) -> float:
    if not candidate_lists:
        return 0.0
    return sum(len(v) for v in candidate_lists.values()) / len(candidate_lists)
