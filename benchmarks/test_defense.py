"""Benchmark: defense ablation (the paper's future-work direction).

Sweeps placement perturbation and net lifting on one design through
the ``defense-sweep`` registry grid, measuring how the proximity
attack degrades and what the defenses cost in wirelength — the
security/PPA trade-off a defender navigates.  Every sweep point is an
independent build-and-attack cell, so the sweep honours
``REPRO_WORKERS`` for multi-process fan-out.  Written to
``results/defense_bench.txt``.
"""

from __future__ import annotations

import pytest

from conftest import paper_report, save_report

pytestmark = pytest.mark.slow

DESIGN = "c880"
SPLIT_LAYER = 3
PERTURBATIONS = (4.0, 8.0, 16.0)
LIFT_FRACTIONS = (0.25, 0.5)


@pytest.fixture(scope="module")
def sweep_report():
    report = paper_report(
        "defense-sweep",
        design=DESIGN,
        split_layer=SPLIT_LAYER,
        perturbations=PERTURBATIONS,
        lift_fractions=LIFT_FRACTIONS,
        with_flow=False,  # proximity only: keeps the benchmark budget
    )
    save_report("defense_bench.txt", report.render())
    return report


def test_defense_sweep_runtime(benchmark):
    """Times the build-and-attack sweep itself (single point so the
    benchmark measures the real work, not table rendering)."""
    report = benchmark.pedantic(
        paper_report,
        args=("defense-sweep",),
        kwargs=dict(
            design=DESIGN,
            split_layer=SPLIT_LAYER,
            perturbations=(PERTURBATIONS[0],),
            lift_fractions=(),
            with_flow=False,
        ),
        rounds=1,
        iterations=1,
    )
    assert len(report.cells) == 2  # baseline + one perturbation


def test_perturbation_sweep(sweep_report):
    """CCR and wirelength vs perturbation strength."""
    base = sweep_report.baseline
    perturbed = [c for c in sweep_report.cells if c.kind == "perturb"]
    assert len(perturbed) == len(PERTURBATIONS)
    strongest = max(perturbed, key=lambda c: c.strength)
    assert strongest.ccr_proximity < base.ccr_proximity, (
        "defense had no effect on the attack"
    )
    assert strongest.wirelength > base.wirelength, (
        "perturbation should cost wirelength"
    )


def test_lifting_sweep(sweep_report):
    """Hidden pins and CCR vs lift fraction."""
    base = sweep_report.baseline
    lifted = sorted(
        (c for c in sweep_report.cells if c.kind == "lift"),
        key=lambda c: c.strength,
    )
    assert len(lifted) == len(LIFT_FRACTIONS)
    hidden = [base.hidden_pins] + [c.hidden_pins for c in lifted]
    assert hidden == sorted(hidden), "lifting must monotonically hide more pins"
    assert hidden[-1] > 2 * hidden[0], "50% lifting should hide far more pins"
