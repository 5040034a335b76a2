"""Ablation benchmarks for the design choices DESIGN.md calls out.

These quantify the *sample selection* machinery of Sec. 4.1 — no model
training required, so they run fast and still pin the paper's design
rationale:

* candidate recall vs n (why n = 31 at paper scale / 15 at ours);
* the direction criterion: how many candidates it prunes and whether it
  sacrifices recall (the paper loosened it specifically to "avoid
  neglecting positive VPPs");
* the non-duplication criterion's effect on list composition;
* the [9]-style candidate-list attack vs single-pick selection.
"""

from __future__ import annotations

import pytest

from repro.core import build_candidates, candidate_recall
from repro.eval import render_table

from conftest import paper_report, save_report

pytestmark = pytest.mark.slow

DESIGN = "c880"
LAYER = 3


@pytest.fixture(scope="module")
def split(split_of):
    return split_of(DESIGN, LAYER)


def test_candidate_recall_vs_n(benchmark, split):
    """Recall grows with n and saturates — Table: n vs recall."""
    ns = (3, 7, 15, 31, 63)

    def sweep():
        return {n: candidate_recall(split, build_candidates(split, n)) for n in ns}

    recalls = benchmark.pedantic(sweep, rounds=1, iterations=1)
    save_report(
        "ablation_candidate_n.txt",
        render_table(
            ["n", "recall"],
            [[str(n), f"{recalls[n]:.3f}"] for n in ns],
            title=f"Candidate recall vs n ({DESIGN}, M{LAYER})",
        ),
    )
    values = [recalls[n] for n in ns]
    assert values == sorted(values), "recall must be monotone in n"
    assert recalls[31] > 0.85, "paper-scale n must capture most positives"


def test_direction_criterion_prunes_without_losing_recall(benchmark, split):
    """Disabling the direction criterion must not raise recall by much —
    the criterion exists to prune, and the paper's loose version is
    designed to keep positives."""
    import repro.core.candidates as cand_mod

    n = 15

    def with_and_without():
        with_dir = build_candidates(split, n)
        original = cand_mod.direction_mask
        cand_mod.direction_mask = lambda *args, **kw: True
        try:
            without_dir = build_candidates(split, n)
        finally:
            cand_mod.direction_mask = original
        return with_dir, without_dir

    with_dir, without_dir = benchmark.pedantic(
        with_and_without, rounds=1, iterations=1
    )
    recall_with = candidate_recall(split, with_dir)
    recall_without = candidate_recall(split, without_dir)
    # the loose criterion sacrifices almost no recall...
    assert recall_with >= recall_without - 0.05
    # ...while genuinely pruning the pair space for some sinks
    pruned = sum(
        1
        for k in with_dir
        if {v.source_fragment for v in with_dir[k]}
        != {v.source_fragment for v in without_dir[k]}
    )
    assert pruned > 0


def test_non_duplication_keeps_one_vpp_per_pair(benchmark, split):
    """Multi-VP fragments exist, and candidates still hold at most one
    VPP per (sink, source) pair."""

    def measure():
        multi_vp = sum(
            1 for f in split.fragments if len(f.virtual_pins) > 1
        )
        candidates = build_candidates(split, 31)
        max_dupes = 0
        for vpps in candidates.values():
            sources = [v.source_fragment for v in vpps]
            max_dupes = max(max_dupes, len(sources) - len(set(sources)))
        return multi_vp, max_dupes

    multi_vp, max_dupes = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert max_dupes == 0
    assert multi_vp >= 0  # informational; some layouts have none


def test_candidate_lists_vs_single_pick(benchmark):
    """[9]-style random-forest lists vs the DL attack's single pick."""
    designs = ["c432", "c880", "b11"]

    report = benchmark.pedantic(
        paper_report,
        args=("candidate-lists",),
        kwargs={"designs": designs, "split_layer": 3, "thresholds": (0.2,)},
        rounds=1,
        iterations=1,
    )
    save_report("ablation_candidate_lists.txt", report.render())
    for row in report.rows:
        # lists buy recall over their own top-1...
        assert row.rf_list_recall >= row.rf_single_ccr - 1e-9
        # ...but leave an astronomic search space when lists are large;
        # the DL attack needs no search at all.
        assert row.rf_mean_list_size >= 1.0
    mean_dl = sum(r.dl_ccr for r in report.rows) / len(report.rows)
    mean_rf = sum(r.rf_single_ccr for r in report.rows) / len(report.rows)
    assert mean_dl >= mean_rf - 5.0, (
        f"DL single-pick should be competitive: {mean_dl:.1f} vs {mean_rf:.1f}"
    )
