"""Table 3 harness: flow attack vs DL attack on the 16-design suite.

Reproduces, per design and per split layer (M1 and M3):

* the problem size (#Sk sink fragments, #Sc source fragments),
* CCR of the network-flow attack [1] and of the DL attack,
* runtime of both (flow subject to a time-out, reported "N/A" exactly
  like the paper's > 100 000 s entries; DL runtime includes feature
  extraction, as in the paper),

plus the averages and ratios the paper headlines (1.21x CCR on M1,
1.12x on M3, <1 % runtime).  Paper reference values are carried along
for side-by-side reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.config import AttackConfig
from ..netlist.benchmarks import PaperRow
from .tables import fmt_or_na, render_markdown_table, render_table

# Scaled counterpart of the paper's 100 000 s cap.  The paper's budget
# exceeds its largest per-design flow runtime (94 281 s) by ~6 %; ours
# is sized so the flow attack times out on the largest scaled designs,
# reproducing the "N/A" pattern of Table 3.
DEFAULT_FLOW_TIMEOUT_S = 120.0


@dataclass
class Table3Row:
    design: str
    split_layer: int
    n_sink_fragments: int
    n_source_fragments: int
    ccr_flow: float | None  # None = timed out
    ccr_dl: float
    runtime_flow: float | None
    runtime_dl: float
    paper: PaperRow | None = None


@dataclass
class Table3Report:
    rows: list[Table3Row] = field(default_factory=list)
    flow_timeout_s: float = DEFAULT_FLOW_TIMEOUT_S
    train_seconds: dict[int, float] = field(default_factory=dict)

    def layer_rows(self, split_layer: int) -> list[Table3Row]:
        return [r for r in self.rows if r.split_layer == split_layer]

    def averages(self, split_layer: int) -> dict[str, float]:
        """Averages over designs where the flow attack finished — the
        same exclusion rule the paper applies 'for fairness'."""
        rows = [r for r in self.layer_rows(split_layer) if r.ccr_flow is not None]
        if not rows:
            return {}
        avg = {
            "ccr_flow": sum(r.ccr_flow for r in rows) / len(rows),
            "ccr_dl": sum(r.ccr_dl for r in rows) / len(rows),
            "runtime_flow": sum(r.runtime_flow for r in rows) / len(rows),
            "runtime_dl": sum(r.runtime_dl for r in rows) / len(rows),
        }
        avg["ccr_ratio"] = (
            avg["ccr_dl"] / avg["ccr_flow"] if avg["ccr_flow"] else float("nan")
        )
        avg["runtime_ratio"] = (
            avg["runtime_dl"] / avg["runtime_flow"]
            if avg["runtime_flow"]
            else float("nan")
        )
        return avg

    # -- rendering ------------------------------------------------------
    def render(self) -> str:
        blocks = []
        for layer in sorted({r.split_layer for r in self.rows}):
            headers = [
                "Design", "#Sk", "#Sc",
                "CCR flow %", "CCR DL %", "t flow (s)", "t DL (s)",
                "paper flow %", "paper DL %",
            ]
            body = []
            for r in sorted(self.layer_rows(layer), key=lambda r: r.design):
                body.append([
                    r.design,
                    str(r.n_sink_fragments),
                    str(r.n_source_fragments),
                    fmt_or_na(r.ccr_flow), f"{r.ccr_dl:.2f}",
                    fmt_or_na(r.runtime_flow), f"{r.runtime_dl:.2f}",
                    fmt_or_na(r.paper.ccr_flow) if r.paper else "-",
                    f"{r.paper.ccr_dl:.2f}" if r.paper else "-",
                ])
            avg = self.averages(layer)
            if avg:
                body.append([
                    "Average", "", "",
                    f"{avg['ccr_flow']:.2f}", f"{avg['ccr_dl']:.2f}",
                    f"{avg['runtime_flow']:.2f}", f"{avg['runtime_dl']:.2f}",
                    "", "",
                ])
                body.append([
                    "Ratio", "", "",
                    "1.00", f"{avg['ccr_ratio']:.2f}",
                    "1.000", f"{avg['runtime_ratio']:.3f}",
                    "", "",
                ])
            blocks.append(
                render_table(
                    headers, body,
                    title=f"Table 3 — split after M{layer} "
                    f"(flow timeout {self.flow_timeout_s:.0f}s)",
                )
            )
        return "\n\n".join(blocks)

    def to_markdown(self) -> str:
        blocks = []
        for layer in sorted({r.split_layer for r in self.rows}):
            headers = [
                "Design", "#Sk", "#Sc", "CCR flow %", "CCR DL %",
                "t flow (s)", "t DL (s)", "paper flow %", "paper DL %",
            ]
            body = [
                [
                    r.design, str(r.n_sink_fragments),
                    str(r.n_source_fragments),
                    fmt_or_na(r.ccr_flow), f"{r.ccr_dl:.2f}",
                    fmt_or_na(r.runtime_flow), f"{r.runtime_dl:.2f}",
                    fmt_or_na(r.paper.ccr_flow) if r.paper else "-",
                    f"{r.paper.ccr_dl:.2f}" if r.paper else "-",
                ]
                for r in sorted(self.layer_rows(layer), key=lambda r: r.design)
            ]
            blocks.append(f"### Split after M{layer}\n\n"
                          + render_markdown_table(headers, body))
            avg = self.averages(layer)
            if avg:
                blocks.append(
                    f"\nAverage (flow-finished designs): flow "
                    f"{avg['ccr_flow']:.2f} % vs DL {avg['ccr_dl']:.2f} % "
                    f"(**{avg['ccr_ratio']:.2f}x**); runtime ratio "
                    f"**{avg['runtime_ratio']:.3f}** "
                    f"(paper: 1.21x / 0.001 on M1, 1.12x / 0.002 on M3)."
                )
        return "\n\n".join(blocks)


def run_table3(
    designs: list[str] | None = None,
    split_layers: tuple[int, ...] = (1, 3),
    config: AttackConfig | None = None,
    train_names: tuple[str, ...] | None = None,
    flow_timeout_s: float = DEFAULT_FLOW_TIMEOUT_S,
    progress=None,
    workers: int | None = None,
    store=None,
    resume: bool = True,
) -> Table3Report:
    """Regenerate Table 3 (or a subset of it).

    A thin call into :class:`repro.api.Client` on the local backend:
    the ``table3`` registry grid runs through the DAG sweep engine and
    the report is assembled from its records.  ``workers`` (or
    ``REPRO_WORKERS``) fans the engine's levels out over processes.
    ``store`` (a :class:`repro.experiments.ResultsStore` or a path)
    records the results and resumes completed scenarios from it; the
    default ``None`` records nothing.
    """
    from ..api import Client, progress_adapter

    with Client(
        backend="local",
        store=store if store is not None else False,
        workers=workers,
    ) as client:
        result = client.table3(
            designs=designs,
            split_layers=split_layers,
            config=config or AttackConfig.fast(),
            train_names=train_names,
            flow_timeout_s=flow_timeout_s,
            resume=resume,
            on_event=progress_adapter(progress),
        )
    return result.report()
