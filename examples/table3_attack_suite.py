#!/usr/bin/env python3
"""Regenerate (a subset of) the paper's Table 3.

Table 3 compares the network-flow attack of Wang et al. [1] against the
paper's DL attack, per design and split layer: CCR, runtime, and the
averages/ratios (paper: 1.21x CCR on M1, 1.12x on M3, <1 % runtime).

Run:

    python examples/table3_attack_suite.py                 # 6-design subset, M3
    python examples/table3_attack_suite.py --layers 1 3    # both split layers
    python examples/table3_attack_suite.py --full          # all 16 designs

The suite is the ``table3`` registry grid, run through
:class:`repro.api.Client` (local backend):
everything expensive (layouts, trained models) lands in .repro_cache,
every cell is recorded in the results store, and repeat runs resume
from both.
"""

import argparse

from repro.api import Client, message_printer
from repro.netlist import TABLE3_SPECS

SUBSET = ["c432", "c880", "c1355", "b11", "b13", "c2670"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="all 16 Table 3 designs (slow: ~1 h cold)")
    parser.add_argument("--layers", type=int, nargs="+", default=[3],
                        choices=[1, 2, 3, 4, 5],
                        help="split layers to attack (default: 3)")
    parser.add_argument("--flow-timeout", type=float, default=None,
                        help="flow-attack budget per design, seconds "
                        "(default: the table3 grid's)")
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: $REPRO_WORKERS or serial; "
        "0 = all cores)",
    )
    args = parser.parse_args()

    designs = [s.name for s in TABLE3_SPECS] if args.full else SUBSET
    params = {"designs": designs, "split_layers": tuple(args.layers)}
    if args.flow_timeout is not None:
        params["flow_timeout_s"] = args.flow_timeout
    with Client(workers=args.workers, on_event=message_printer()) as client:
        result = client.run("table3", params)
    report = result.report()
    print()
    print(report.render())
    for layer in args.layers:
        avg = report.averages(layer)
        if avg:
            print(
                f"\nM{layer}: DL/flow CCR ratio {avg['ccr_ratio']:.2f}x "
                f"(paper: {'1.21x' if layer == 1 else '1.12x' if layer == 3 else 'n/a'}), "
                f"runtime ratio {avg['runtime_ratio']:.3f}"
            )


if __name__ == "__main__":
    main()
