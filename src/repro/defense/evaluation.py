"""Defense sweep harness: security/PPA trade-off of the defenses.

The paper's conclusion points at placement- and routing-based defenses
as future work; this harness quantifies both on one design.  Every
sweep point — the undefended baseline, each placement-perturbation
strength, each net-lifting fraction — is an independent
build-layout -> split -> attack cell of the ``defense-sweep`` grid, so
the DAG engine fans them out over processes: pass ``workers=`` or set
``REPRO_WORKERS``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..eval.tables import render_table

DEFAULT_PERTURBATIONS = (4.0, 8.0, 16.0)
DEFAULT_LIFT_FRACTIONS = (0.25, 0.5)


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


def run_defense_sweep(
    design: str,
    split_layer: int = 3,
    perturbations: tuple[float, ...] = DEFAULT_PERTURBATIONS,
    lift_fractions: tuple[float, ...] = DEFAULT_LIFT_FRACTIONS,
    with_flow: bool = True,
    workers: int | None = None,
    progress=None,
    store=None,
    resume: bool = True,
) -> DefenseSweepReport:
    """Sweep the defenses on one design.

    A thin call into :class:`repro.api.Client` on the local backend:
    the ``defense-sweep`` registry grid builds each defended layout
    once and shares it between the proximity and flow cells attacking
    it.  ``store`` records the results and resumes completed cells
    from it; the default ``None`` records nothing.
    """
    from ..api import Client, progress_adapter

    with Client(
        backend="local",
        store=store if store is not None else False,
        workers=workers,
    ) as client:
        result = client.defense_sweep(
            design,
            split_layer=split_layer,
            perturbations=perturbations,
            lift_fractions=lift_fractions,
            with_flow=with_flow,
            resume=resume,
            on_event=progress_adapter(progress),
        )
    return result.report()
