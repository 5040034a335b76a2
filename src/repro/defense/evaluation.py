"""Defense sweep report: security/PPA trade-off of the defenses.

The paper's conclusion points at placement- and routing-based defenses
as future work; the ``defense-sweep`` registry grid quantifies both on
one design.  Every sweep point — the undefended baseline, each
placement-perturbation strength, each net-lifting fraction — is an
independent build-layout -> split -> attack cell, so the DAG engine
fans them out over processes (``Client(workers=...)`` or
``REPRO_WORKERS``); ``ResultSet.report()`` fills this module's report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..eval.tables import render_table


@dataclass
class DefenseCell:
    """Attack outcomes on one (possibly defended) layout."""

    label: str
    kind: str  # "baseline" | "perturb" | "lift"
    strength: float
    n_sink_fragments: int
    hidden_pins: int
    ccr_proximity: float
    ccr_flow: float | None  # None when the flow attack was skipped
    wirelength: int


@dataclass
class DefenseSweepReport:
    design: str
    split_layer: int
    cells: list[DefenseCell] = field(default_factory=list)

    @property
    def baseline(self) -> DefenseCell:
        for cell in self.cells:
            if cell.kind == "baseline":
                return cell
        raise ValueError("sweep has no baseline cell")

    def render(self) -> str:
        base_wl = max(self.baseline.wirelength, 1)
        rows = []
        for cell in self.cells:
            overhead = cell.wirelength / base_wl - 1.0
            rows.append([
                cell.label,
                str(cell.n_sink_fragments),
                str(cell.hidden_pins),
                f"{cell.ccr_proximity:.1f}",
                "-" if cell.ccr_flow is None else f"{cell.ccr_flow:.1f}",
                f"{100 * overhead:+.1f}%",
            ])
        return render_table(
            ["Defense", "#Sk", "hidden pins", "prox CCR %", "flow CCR %",
             "WL cost"],
            rows,
            title=(
                f"Defenses on {self.design}, split after M{self.split_layer}"
            ),
        )
