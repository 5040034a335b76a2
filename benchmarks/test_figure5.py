"""Benchmark: regenerate Figure 5 (loss + image-feature ablation).

Figure 5(a): average CCR of two-class vs softmax(vec) vs
softmax(vec&img) on the M3 split — the paper reports 1.00 : 1.07 : 1.09.
Figure 5(b): average inference time — softmax is not slower, images add
only comparable cost.

Models come from the shared cache; the regenerated figure is written to
``results/figure5_bench.txt``.
"""

from __future__ import annotations

import pytest

from repro.eval import variant_config
from repro.pipeline import trained_attack

from conftest import paper_report, save_report

pytestmark = pytest.mark.slow

# Subset of the full harness list (scripts/run_full_experiments.py runs
# all eight): keeps the benchmark pass inside its time budget.
FIGURE5_DESIGNS = ["c432", "c880", "c1355", "b11", "b13"]


@pytest.fixture(scope="module")
def figure5_report():
    report = paper_report("figure5", designs=FIGURE5_DESIGNS, split_layer=3)
    save_report("figure5_bench.txt", report.render())
    return report


def test_regenerate_figure5(benchmark, figure5_report):
    report = figure5_report
    benchmark(report.render)

    gains = report.gains()
    # Softmax regression loss is the paper's big effect (1.07x): it must
    # not lose to two-class training beyond run-to-run noise.
    assert gains["vec"] >= 0.97, (
        f"softmax loss should not lose to two-class: {gains}"
    )
    # Image features add on top (paper: 1.09x overall); tolerate noise
    # but never a collapse.
    assert gains["vec&img"] >= gains["vec"] - 0.05, f"image features collapsed: {gains}"
    assert gains["vec&img"] > 1.0, f"full attack must beat the baseline: {gains}"

    # Figure 5(b): adding images must not blow up inference time.
    t_vec = report.result("vec").avg_inference_s
    t_img = report.result("vec&img").avg_inference_s
    assert t_img < 60.0 * max(t_vec, 0.01), "image variant absurdly slow"


@pytest.mark.parametrize("variant", ["two-class", "vec", "vec&img"])
def test_variant_inference_time(benchmark, variant, bench_config, split_of):
    """Figure 5(b): inference time per variant on one design."""
    attack = trained_attack(3, variant_config(bench_config, variant))
    # Cache-free, like the figure5 grid: a warm feature/embedding cache would
    # reduce all three variants to npz-load time.
    split = split_of("c880", 3)
    result = benchmark.pedantic(
        attack.attack, args=(split,), kwargs={"use_disk_cache": False},
        rounds=1, iterations=1,
    )
    assert result.assignment
