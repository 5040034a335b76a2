"""Candidate-list comparison: DL single-pick vs [9]-style lists.

The paper's introduction argues against Zhang et al. [9]: their
random-forest classifiers "do not predict the BEOL connections
directly, but generate a list of candidates with considerable size
instead", making full netlist recovery impractical.  This harness makes
that argument measurable on our layouts:

* the DL attack commits to exactly one source per sink fragment (CCR);
* the random-forest attack produces a probability-thresholded list per
  sink fragment: higher recall, but at list sizes that multiply into an
  astronomical number of full-netlist combinations.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from ..attacks.random_forest import RandomForestAttack
from ..core.attack import DLAttack
from ..core.config import AttackConfig
from ..netlist.benchmarks import TRAINING_DESIGNS
from ..pipeline.flow import get_split, trained_attack
from ..split.metrics import candidate_list_recall, ccr
from .tables import render_table


@dataclass
class ZhangRow:
    design: str
    dl_ccr: float
    rf_single_ccr: float
    rf_list_recall: float
    rf_mean_list_size: float
    log10_combinations: float  # log10 of product of list sizes


@dataclass
class ZhangReport:
    rows: list[ZhangRow] = field(default_factory=list)
    split_layer: int = 3
    rf_train_seconds: float = 0.0

    def render(self) -> str:
        body = [
            [
                r.design,
                f"{r.dl_ccr:.1f}",
                f"{r.rf_single_ccr:.1f}",
                f"{r.rf_list_recall:.1f}",
                f"{r.rf_mean_list_size:.1f}",
                f"1e{r.log10_combinations:.0f}",
            ]
            for r in self.rows
        ]
        return render_table(
            [
                "Design", "DL CCR %", "RF top-1 %", "RF list recall %",
                "RF list size", "#combinations",
            ],
            body,
            title=(
                f"Single-pick vs candidate lists (M{self.split_layer}; "
                "the paper's argument against [9])"
            ),
        )


def run_candidate_list_comparison(
    designs: list[str],
    split_layer: int = 3,
    config: AttackConfig | None = None,
    train_names: tuple[str, ...] | None = None,
    list_threshold: float = 0.2,
) -> ZhangReport:
    config = config or AttackConfig.benchmark()
    if train_names is None:
        train_names = tuple(d.name for d in TRAINING_DESIGNS)
    report = ZhangReport(split_layer=split_layer)

    dl: DLAttack = trained_attack(split_layer, config, train_names)
    train_splits = [get_split(n, split_layer) for n in train_names]
    started = time.perf_counter()
    rf = RandomForestAttack(list_threshold=list_threshold)
    rf.train(train_splits)
    report.rf_train_seconds = time.perf_counter() - started

    for name in designs:
        split = get_split(name, split_layer)
        dl_ccr = ccr(split, dl.select(split))
        rf_single = ccr(split, rf.select(split))
        lists = rf.candidate_lists(split)
        recall = candidate_list_recall(split, lists.lists)
        log_combos = sum(
            math.log10(max(len(v), 1)) for v in lists.lists.values()
        )
        report.rows.append(
            ZhangRow(
                design=name,
                dl_ccr=dl_ccr,
                rf_single_ccr=rf_single,
                rf_list_recall=recall,
                rf_mean_list_size=lists.mean_size(),
                log10_combinations=log_combos,
            )
        )
    return report
