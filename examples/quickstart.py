#!/usr/bin/env python3
"""Quickstart: the whole attack flow on three tiny designs (~1 minute).

Walks through every stage of the reproduction:

1. generate gate-level netlists (the paper uses ISCAS-85/ITC-99;
   we synthesise structurally similar designs),
2. place and route them (the paper uses Cadence Innovus),
3. split each layout after M3 — the attacker keeps the FEOL,
4. train the paper's deep-learning attack on two designs,
5. attack the third and compare with the naive proximity baseline.

Run:  python examples/quickstart.py

The demo runs with the disk cache off (``REPRO_CACHE_DIR=`` empty), so
it leaves no files behind.
"""

import argparse
import os

from repro.attacks import ProximityAttack
from repro.core import AttackConfig, DLAttack
from repro.layout import build_layout
from repro.netlist import TINY_DESIGNS, build_suite_design
from repro.split import ccr, split_design

SPLIT_LAYER = 3  # the FEOL foundry sees M1..M3


def main() -> None:
    argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    ).parse_args()
    # Empty REPRO_CACHE_DIR disables every disk cache: the tiny designs'
    # features and embeddings stay in memory.
    os.environ["REPRO_CACHE_DIR"] = ""

    print("=== 1-2. generate + place & route ===")
    layouts = {}
    for spec in TINY_DESIGNS:
        netlist = build_suite_design(spec)
        design = build_layout(netlist)
        layouts[spec.name] = design
        stats = design.stats()
        print(
            f"  {spec.name:10s} {stats['gates']:3.0f} gates, "
            f"die {stats['die_width']:.0f}x{stats['die_height']:.0f}, "
            f"wirelength {stats['wirelength']:.0f} tracks"
        )

    print(f"\n=== 3. split after M{SPLIT_LAYER} ===")
    splits = {}
    for name, design in layouts.items():
        split = split_design(design, SPLIT_LAYER)
        splits[name] = split
        stats = split.stats()
        print(
            f"  {name:10s} {stats['sink_fragments']:.0f} sink fragments, "
            f"{stats['source_fragments']:.0f} source fragments, "
            f"{stats['hidden_sink_pins']:.0f} hidden sink pins"
        )

    print("\n=== 4. train the DL attack (tiny config) ===")
    train = [splits["tiny_a"], splits["tiny_b"]]
    target = splits["tiny_seq"]
    attack = DLAttack(AttackConfig.tiny().with_(epochs=12), SPLIT_LAYER)
    log = attack.train(train, verbose=True)
    print(f"  trained in {log.train_seconds:.1f}s")

    print("\n=== 5. attack the held-out design ===")
    result = attack.attack(target)
    dl_ccr = ccr(target, result.assignment)
    prox = ProximityAttack().attack(target)
    prox_ccr = ccr(target, prox.assignment)
    print(f"  DL attack       CCR = {dl_ccr:5.1f}%  ({result.runtime_s:.2f}s)")
    print(f"  proximity [8]   CCR = {prox_ccr:5.1f}%  ({prox.runtime_s:.2f}s)")
    print(
        "\nNote: this is the minutes-scale demo configuration; "
        "see examples/table3_attack_suite.py for the paper-shaped runs."
    )


if __name__ == "__main__":
    main()
