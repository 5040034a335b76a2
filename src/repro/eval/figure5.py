"""Figure 5 report: loss-function and image-feature ablation.

The paper's Figure 5 compares three settings on the M3 split:

* **Two-class** — vector features with the traditional two-class
  classification loss (Eq. 3): the baseline;
* **Vec** — vector features with the proposed softmax regression loss
  (Eq. 6): average CCR 1.07x the baseline;
* **Vec & Img** — softmax loss plus image features: 1.09x the baseline,
  at comparable inference time (Figure 5(b)).

The ``figure5`` registry grid trains the three variants on the same
corpus, shares each model across every design cell and times inference
cache-free (warm feature/embedding caches would hide the image
branch's cost); this report holds the average CCR and average
inference time over the attack designs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.config import AttackConfig
from .tables import render_bars, render_table

VARIANTS = ("two-class", "vec", "vec&img")

# Paper Figure 5(a) relative CCR (baseline = two-class = 1.00).
PAPER_CCR_GAINS = {"two-class": 1.00, "vec": 1.07, "vec&img": 1.09}


def variant_config(base: AttackConfig, variant: str) -> AttackConfig:
    if variant == "two-class":
        return base.with_(loss="two_class", use_images=False)
    if variant == "vec":
        return base.with_(loss="softmax", use_images=False)
    if variant == "vec&img":
        return base.with_(loss="softmax", use_images=True)
    raise ValueError(f"unknown variant {variant!r}")


@dataclass
class Figure5Result:
    variant: str
    avg_ccr: float
    avg_inference_s: float
    per_design_ccr: dict[str, float] = field(default_factory=dict)


@dataclass
class Figure5Report:
    results: list[Figure5Result] = field(default_factory=list)
    split_layer: int = 3

    def result(self, variant: str) -> Figure5Result:
        for r in self.results:
            if r.variant == variant:
                return r
        raise KeyError(variant)

    def gains(self) -> dict[str, float]:
        base = self.result("two-class").avg_ccr
        return {
            r.variant: (r.avg_ccr / base if base > 0 else float("nan"))
            for r in self.results
        }

    def render(self) -> str:
        gains = self.gains()
        rows = [
            [
                r.variant,
                f"{r.avg_ccr:.2f}",
                f"{gains[r.variant]:.2f}x",
                f"{PAPER_CCR_GAINS[r.variant]:.2f}x",
                f"{r.avg_inference_s:.2f}",
            ]
            for r in self.results
        ]
        table = render_table(
            ["Variant", "avg CCR %", "gain", "paper gain", "t infer (s)"],
            rows,
            title=f"Figure 5 — ablation on M{self.split_layer}",
        )
        chart_a = render_bars(
            [r.variant for r in self.results],
            [r.avg_ccr for r in self.results],
            unit="%",
        )
        chart_b = render_bars(
            [r.variant for r in self.results],
            [r.avg_inference_s for r in self.results],
            unit="s",
        )
        return (
            f"{table}\n\n(a) average CCR\n{chart_a}"
            f"\n\n(b) average inference time\n{chart_b}"
        )
