"""Report builders: results-store records -> paper report objects.

Each paper artifact's report type (``Table3Report``,
``Figure5Report``, ``DefenseSweepReport``, ``ZhangReport``) is filled
from :class:`ScenarioRecord` rows by one builder here, so
``ResultSet.report()``, formatters and scripts read records instead of
recomputing attacks.
"""

from __future__ import annotations

from collections import defaultdict

from ..eval.tables import render_table
from .store import ScenarioRecord


def _cell_index(records: list[ScenarioRecord]) -> dict:
    """Index latest records by (design, layer, attack, defense identity)."""
    index: dict = {}
    for record in records:
        s = record.scenario
        key = (
            s["design"],
            s["split_layer"],
            s["attack"],
            s["defense"]["kind"],
            s["defense"]["strength"],
            s["defense"].get("seed", 0),
        )
        index[key] = record
    return index


def table3_report(
    records: list[ScenarioRecord],
    train_seconds: dict | None = None,
):
    """Assemble a :class:`repro.eval.table3.Table3Report` from records.

    The flow timeout comes from the flow scenarios themselves.
    ``train_seconds`` accepts either a per-layer dict or the sweep
    engine's (layer, config fingerprint)-keyed dict.
    """
    from ..eval.table3 import Table3Report, Table3Row
    from ..netlist.benchmarks import TABLE3_BY_NAME

    index = _cell_index(records)
    cells: list[tuple[str, int]] = []
    for record in records:
        s = record.scenario
        cell = (s["design"], s["split_layer"])
        if s["defense"]["kind"] == "none" and cell not in cells:
            cells.append(cell)

    report = Table3Report(
        flow_timeout_s=next(
            (
                r.scenario["flow_timeout_s"] for r in records
                if r.scenario["attack"] == "flow"
            ),
            None,
        )
    )
    for key, seconds in (train_seconds or {}).items():
        layer = key[0] if isinstance(key, tuple) else key
        report.train_seconds[layer] = seconds
    for design, layer in cells:
        flow = index.get((design, layer, "flow", "none", 0.0, 0))
        dl = index.get((design, layer, "dl", "none", 0.0, 0))
        if dl is None:
            continue
        sizes = dl
        spec = TABLE3_BY_NAME.get(design)
        report.rows.append(
            Table3Row(
                design=design,
                split_layer=layer,
                n_sink_fragments=sizes.n_sink_fragments,
                n_source_fragments=sizes.n_source_fragments,
                ccr_flow=None if flow is None else flow.ccr,
                ccr_dl=dl.ccr,
                runtime_flow=None if flow is None else flow.runtime_s,
                runtime_dl=dl.runtime_s,
                paper=(spec.m1 if layer == 1 else spec.m3) if spec else None,
            )
        )
    return report


def figure5_report(records: list[ScenarioRecord], split_layer: int = 3):
    """Assemble a :class:`repro.eval.figure5.Figure5Report` from records."""
    from ..eval.figure5 import VARIANTS, Figure5Report, Figure5Result

    by_variant: dict[str, list[ScenarioRecord]] = defaultdict(list)
    for record in records:
        s = record.scenario
        tags = s.get("tags") or []
        variant = next((t for t in tags if t in VARIANTS), None) or s["label"]
        if variant:
            by_variant[variant].append(record)

    report = Figure5Report(split_layer=split_layer)
    for variant in VARIANTS:
        rows = by_variant.get(variant)
        if not rows:
            continue
        ccrs = {r.scenario["design"]: r.ccr for r in rows}
        total_time = sum(r.runtime_s for r in rows)
        report.results.append(
            Figure5Result(
                variant=variant,
                avg_ccr=sum(ccrs.values()) / len(ccrs),
                avg_inference_s=total_time / len(ccrs),
                per_design_ccr=ccrs,
            )
        )
    return report


def candidate_lists_report(records: list[ScenarioRecord]):
    """Assemble a :class:`repro.eval.zhang.ZhangReport` from records.

    One row per rf record (design x threshold, in record order): DL
    CCR from the design's ``dl`` record, the forest's columns from the
    rf record's CCR and ``extra["rf"]``.
    """
    from ..eval.zhang import ZhangReport, ZhangRow

    dl = {
        (r.scenario["design"], r.scenario["split_layer"]): r
        for r in records
        if r.scenario["attack"] == "dl"
    }
    report = ZhangReport()
    forest_seconds = []
    for record in records:
        s = record.scenario
        dl_record = dl.get((s["design"], s["split_layer"]))
        if s["attack"] != "rf" or dl_record is None:
            continue
        rf = record.extra["rf"]
        report.split_layer = s["split_layer"]
        report.rows.append(
            ZhangRow(
                design=s["design"],
                dl_ccr=dl_record.ccr,
                rf_single_ccr=record.ccr,
                rf_list_recall=rf["list_recall"],
                rf_mean_list_size=rf["mean_list_size"],
                log10_combinations=rf["log10_combinations"],
                list_threshold=rf["list_threshold"],
            )
        )
        if record.train_seconds is not None:
            forest_seconds.append(record.train_seconds)
    if forest_seconds:
        # One forest serves a process's rf scenarios; only the record
        # that trained it carries a time (more with several workers).
        report.rf_train_seconds = sum(forest_seconds) / len(forest_seconds)
    return report


def defense_report(
    records: list[ScenarioRecord],
    design: str,
    split_layer: int,
):
    """Assemble a :class:`repro.defense.evaluation.DefenseSweepReport`."""
    from ..defense.evaluation import DefenseCell, DefenseSweepReport

    index = _cell_index(records)
    # Dedup by the defense identity (kind, strength, seed), not the
    # record label: a record resumed from the store may carry a label
    # from an older grid, and multi-seed sweeps are distinct cells.
    defenses: list[tuple[str, float, int]] = []
    for record in records:
        s = record.scenario
        d = (
            s["defense"]["kind"],
            s["defense"]["strength"],
            s["defense"].get("seed", 0),
        )
        if s["design"] == design and d not in defenses:
            defenses.append(d)

    report = DefenseSweepReport(design=design, split_layer=split_layer)
    for kind, strength, seed in defenses:
        prox = index.get(
            (design, split_layer, "proximity", kind, strength, seed)
        )
        flow = index.get((design, split_layer, "flow", kind, strength, seed))
        if prox is None:
            continue
        report.cells.append(
            DefenseCell(
                label=prox.spec.defense.label,
                kind="baseline" if kind == "none" else kind,
                strength=strength,
                n_sink_fragments=prox.n_sink_fragments,
                hidden_pins=prox.hidden_pins,
                ccr_proximity=prox.ccr,
                ccr_flow=None if flow is None else flow.ccr,
                wirelength=prox.wirelength,
            )
        )
    return report


def store_summary(
    records: list[ScenarioRecord], top: int = 10, title: str = "stored sweep"
) -> str:
    """Operational summary of stored records (``repro report``).

    Shows per-attack counts, the slowest evaluation nodes (by the
    engine's per-node wall-clock telemetry when present, the attack
    runtime otherwise), and the aggregate artifact cache-hit ratio of
    the sweeps that produced the records.
    """
    if not records:
        return f"{title}: no records"
    lines = [f"{title}: {len(records)} scenarios"]

    by_attack: dict[str, list[ScenarioRecord]] = defaultdict(list)
    for record in records:
        by_attack[record.scenario["attack"]].append(record)
    for attack in sorted(by_attack):
        rows = by_attack[attack]
        ok = [r for r in rows if r.status == "ok"]
        ccrs = [r.ccr for r in ok if r.ccr is not None]
        mean_ccr = f"{sum(ccrs) / len(ccrs):6.2f}%" if ccrs else "     -"
        lines.append(
            f"  {attack:9s} {len(rows):4d} records  "
            f"{len(rows) - len(ok)} not-ok  mean CCR {mean_ccr}"
        )

    def node_seconds(record: ScenarioRecord) -> float | None:
        telemetry = record.extra.get("telemetry") or {}
        seconds = telemetry.get("node_seconds")
        return record.runtime_s if seconds is None else seconds

    timed = [r for r in records if node_seconds(r) is not None]
    timed.sort(key=node_seconds, reverse=True)
    if timed:
        lines.append(f"slowest nodes (top {min(top, len(timed))}):")
        for record in timed[:top]:
            s = record.scenario
            lines.append(
                f"  {node_seconds(record):8.3f}s  {record.scenario_hash}  "
                f"{s['design']:>10s} M{s['split_layer']} {s['attack']}"
            )

    hits = 0
    scheduled = 0
    for record in records:
        telemetry = record.extra.get("telemetry") or {}
        hits += sum((telemetry.get("cache_hits") or {}).values())
        scheduled += sum(
            count
            for kind, count in (telemetry.get("planned") or {}).items()
            if kind != "eval"  # evals are never cache artifacts
        )
    if hits or scheduled:
        ratio = hits / (hits + scheduled)
        lines.append(
            f"artifact cache: {hits} hits / {hits + scheduled} lookups "
            f"({100 * ratio:.0f}% hit ratio)"
        )
    return "\n".join(lines)


def render_records(records: list[ScenarioRecord], title: str = "sweep") -> str:
    """Generic fixed-width table over arbitrary records (``repro sweep``)."""
    rows = []
    for record in records:
        s = record.scenario
        rows.append([
            record.scenario_hash,
            s["design"],
            f"M{s['split_layer']}",
            s["attack"],
            record.spec.defense.label,
            record.status,
            "-" if record.ccr is None else f"{record.ccr:.2f}",
            "-" if record.runtime_s is None else f"{record.runtime_s:.2f}",
        ])
    return render_table(
        ["scenario", "design", "M", "attack", "defense", "status",
         "CCR %", "t (s)"],
        rows,
        title=title,
    )
