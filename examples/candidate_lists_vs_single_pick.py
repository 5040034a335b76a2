#!/usr/bin/env python3
"""Why single-pick prediction matters: DL attack vs [9]-style lists.

The paper dismisses the random-forest approach of Zhang et al. [9]
because it outputs *candidate lists* "with considerable size" rather
than connections: with hundreds of candidates per broken connection,
recovering the actual netlist means searching a combinatorial space.

This example runs the ``candidate-lists`` registry grid: our
from-scratch random-forest attack next to the DL attack, printing per
design: the DL attack's committed-choice CCR, the forest's top-1 CCR,
its list recall, mean list size, and the resulting number of
full-netlist combinations an attacker would face.

Run:  python examples/candidate_lists_vs_single_pick.py
"""

import argparse

from repro.api import Client, message_printer

DEFAULT_DESIGNS = ["c432", "c880", "c1355", "b11"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--designs", nargs="+", default=DEFAULT_DESIGNS)
    parser.add_argument("--threshold", type=float, default=0.2,
                        help="forest probability threshold for list membership")
    args = parser.parse_args()

    with Client(on_event=message_printer()) as client:
        result = client.run(
            "candidate-lists",
            {"designs": args.designs, "thresholds": (args.threshold,)},
        )
    print(result.report().render())
    print(
        "\nReading: '#combinations' is the product of list sizes — the "
        "search space left after the list attack; the DL attack leaves 1."
    )


if __name__ == "__main__":
    main()
