#!/usr/bin/env python3
"""Regenerate every evaluation artifact of the paper (Table 3, Figure 5).

Run from the repository root:

    python scripts/run_full_experiments.py [--quick]

Results are written to ``results/`` (text + markdown) and all expensive
intermediates (layouts, trained models) are cached in ``.repro_cache``
so re-runs and the pytest benchmarks reuse them.

``--quick`` restricts Table 3 to a six-design subset and is meant for a
~15-minute sanity pass; the full run regenerates all 16 designs on both
split layers.  ``--workers N`` (or ``REPRO_WORKERS``) fans the designs,
split layers and ablation variants out over N worker processes
coordinated by the disk cache (``0`` = one per CPU core).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.api import Client, message_printer
from repro.core.atomic import atomic_write_json, atomic_write_text
from repro.experiments import ResultsStore
from repro.netlist import TABLE3_SPECS

QUICK_DESIGNS = ["c432", "c880", "c1355", "b11", "b13", "c2670"]
# Figure 5 is an M3 ablation; the paper averages over its attack suite.
FIGURE5_DESIGNS = [
    "c432", "c880", "c1355", "c1908", "b11", "b13", "b7", "c2670",
]


def log(msg: str) -> None:
    print(f"[{time.strftime('%H:%M:%S')}] {msg}", flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--skip-table3", action="store_true")
    parser.add_argument("--skip-figure5", action="store_true")
    parser.add_argument("--out", default="results")
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: $REPRO_WORKERS or serial; 0 = all cores)",
    )
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # Both grids default to AttackConfig.benchmark().
    summary: dict = {"config": "benchmark", "quick": args.quick}
    # Each artifact is its registry grid run through the repro.api
    # facade (local backend): every
    # scenario outcome is appended to the results store, and completed
    # scenarios resume from it — re-running this script after an
    # interrupt (or with a wider design list) only computes the missing
    # cells.
    store = ResultsStore(out / "experiments.jsonl")
    log(f"results store: {store.path} ({len(store)} scenarios)")

    with Client(
        backend="local", store=store, workers=args.workers,
        on_event=message_printer(prefix="", write=log),
    ) as client:
        if not args.skip_table3:
            designs = (
                QUICK_DESIGNS if args.quick
                else [s.name for s in TABLE3_SPECS]
            )
            log(f"Table 3: {len(designs)} designs, split layers M1+M3")
            report = client.run("table3", {"designs": designs}).report()
            atomic_write_text(out / "table3.txt", report.render() + "\n")
            atomic_write_text(out / "table3.md", report.to_markdown() + "\n")
            print(report.render())
            summary["table3"] = {
                f"m{layer}": report.averages(layer) for layer in (1, 3)
            }
            summary["table3"]["train_seconds"] = report.train_seconds
            summary["table3"]["rows"] = [
                {
                    "design": r.design, "layer": r.split_layer,
                    "sk": r.n_sink_fragments, "sc": r.n_source_fragments,
                    "ccr_flow": r.ccr_flow, "ccr_dl": r.ccr_dl,
                    "rt_flow": r.runtime_flow, "rt_dl": r.runtime_dl,
                }
                for r in report.rows
            ]
            log("Table 3 done")

        if not args.skip_figure5:
            log(f"Figure 5: {len(FIGURE5_DESIGNS)} designs, M3 ablation")
            report5 = client.run(
                "figure5", {"designs": FIGURE5_DESIGNS, "split_layer": 3}
            ).report()
            atomic_write_text(out / "figure5.txt", report5.render() + "\n")
            print(report5.render())
            summary["figure5"] = {
                r.variant: {
                    "avg_ccr": r.avg_ccr,
                    "avg_inference_s": r.avg_inference_s,
                }
                for r in report5.results
            }
            summary["figure5_gains"] = report5.gains()
            log("Figure 5 done")

    atomic_write_json(out / "summary.json", summary)
    store.to_csv(out / "experiments.csv")
    log(f"wrote {out}/summary.json and {out}/experiments.csv "
        f"({len(store)} scenarios in the store)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
