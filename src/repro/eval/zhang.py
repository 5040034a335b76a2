"""Candidate-list comparison: DL single-pick vs [9]-style lists.

The paper's introduction argues against Zhang et al. [9]: their
random-forest classifiers "do not predict the BEOL connections
directly, but generate a list of candidates with considerable size
instead", making full netlist recovery impractical.  The
``candidate-lists`` grid makes that argument measurable on our layouts:

* the DL attack commits to exactly one source per sink fragment (CCR);
* the random-forest attack produces a probability-thresholded list per
  sink fragment: higher recall, but at list sizes that multiply into an
  astronomical number of full-netlist combinations.

This module holds the report types; the grid's records fill them
(:func:`repro.experiments.reports.candidate_lists_report`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .tables import render_table


@dataclass
class ZhangRow:
    design: str
    dl_ccr: float
    rf_single_ccr: float
    rf_list_recall: float
    rf_mean_list_size: float
    log10_combinations: float  # log10 of product of list sizes
    list_threshold: float | None = None


@dataclass
class ZhangReport:
    rows: list[ZhangRow] = field(default_factory=list)
    split_layer: int = 3
    rf_train_seconds: float = 0.0

    def render(self) -> str:
        # A threshold column only when the rows differ in threshold.
        by_threshold = len({r.list_threshold for r in self.rows}) > 1
        body = [
            [r.design]
            + ([f"{r.list_threshold:g}"] if by_threshold else [])
            + [
                f"{r.dl_ccr:.1f}",
                f"{r.rf_single_ccr:.1f}",
                f"{r.rf_list_recall:.1f}",
                f"{r.rf_mean_list_size:.1f}",
                f"1e{r.log10_combinations:.0f}",
            ]
            for r in self.rows
        ]
        return render_table(
            ["Design"]
            + (["RF threshold"] if by_threshold else [])
            + [
                "DL CCR %", "RF top-1 %", "RF list recall %",
                "RF list size", "#combinations",
            ],
            body,
            title=(
                f"Single-pick vs candidate lists (M{self.split_layer}; "
                "the paper's argument against [9])"
            ),
        )
