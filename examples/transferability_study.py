#!/usr/bin/env python3
"""Transferability: does the attack generalise across circuit families?

The threat model assumes the attacker "has a database of layouts
generated in a similar manner as the one under attack" (Sec. 2.1).
This study probes how far "similar" stretches: the benchmark-config
model (trained on the mixed 9-design corpus) is evaluated per circuit
family — random logic, sequential controllers, arithmetic arrays and
parity trees — to show where layout regularities transfer.

The study runs through the ``transferability`` registry grid on
:class:`repro.api.Client` (local backend): each family's designs are
one tagged scenario batch, every CCR lands in the results store, and a
re-run resumes from it (cold start trains for several minutes).

Run:  python examples/transferability_study.py [--layer 3]
"""

import argparse
from collections import defaultdict

from repro.api import Client, message_printer
from repro.eval import render_table
from repro.experiments.registry import TRANSFER_FAMILIES
from repro.netlist import TABLE3_BY_NAME

FAMILY_TITLES = {
    "rand": "rand (ISCAS85)",
    "seq": "seq (ITC99)",
    "arith": "arith (multiplier)",
    "parity": "parity (ECC)",
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--layer", type=int, default=3)
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: $REPRO_WORKERS or serial; "
        "0 = all cores)",
    )
    args = parser.parse_args()

    with Client(workers=args.workers, on_event=message_printer()) as client:
        result = client.run(
            "transferability", {"split_layer": args.layer}
        )

    # Family membership comes from the grid table, not the stored
    # label: a record resumed from the store may have been produced by
    # another grid (e.g. table3's dl cells) with a different label.
    family_of = {
        design: family
        for family, designs in TRANSFER_FAMILIES.items()
        for design in designs
    }
    rows = []
    family_ccrs = defaultdict(list)
    for record in result.records:
        name = record.scenario["design"]
        family = family_of[name]
        family_ccrs[family].append(record.ccr)
        rows.append([
            FAMILY_TITLES.get(family, family), name,
            TABLE3_BY_NAME[name].flavor, f"{record.ccr:.1f}",
        ])
    for family, values in family_ccrs.items():
        rows.append([
            FAMILY_TITLES.get(family, family), "= family avg", "",
            f"{sum(values) / len(values):.1f}",
        ])

    print(
        render_table(
            ["Family", "Design", "Flavor", f"DL CCR % (M{args.layer})"],
            rows,
            title="Cross-family transferability of the trained attack",
        )
    )
    print(
        "\nThe training corpus contains all four flavours (DESIGN.md), so "
        "family gaps here measure intra-family layout regularity, not "
        "train/test mismatch."
    )


if __name__ == "__main__":
    main()
