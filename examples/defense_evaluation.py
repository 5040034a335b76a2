#!/usr/bin/env python3
"""Evaluate split-manufacturing defenses against the attacks.

The paper's conclusion points at placement- and routing-based defenses
as future work; this example quantifies both on one design:

* placement perturbation — noise added before legalisation weakens the
  proximity signal (costs wirelength);
* net lifting — short nets forced above the split layer hide more
  connections (costs vias/wirelength) and flood the candidate space.

For each defense strength the proximity and network-flow attacks run on
the defended layout, along with the security/PPA trade-off.  The sweep
is the ``defense-sweep`` registry grid, run through
:class:`repro.api.Client` (local backend): every sweep
point builds and attacks its own layout, so it fans out over worker
processes with ``--workers`` (or ``REPRO_WORKERS``), and each cell is
recorded in the results store for resumption.

Run:  python examples/defense_evaluation.py [--design c880] [--workers 4]
"""

import argparse

from repro.api import Client, message_printer


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--design", default="c880")
    parser.add_argument("--layer", type=int, default=3)
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: $REPRO_WORKERS or serial; 0 = all cores)",
    )
    args = parser.parse_args()

    with Client(workers=args.workers, on_event=message_printer()) as client:
        result = client.run(
            "defense-sweep",
            {"design": args.design, "split_layer": args.layer},
        )
    print(result.report().render())
    print(
        "\nReading: lower CCR = better security; "
        "hidden pins rise under lifting (more of the design is in the BEOL); "
        "WL cost is the PPA price of the defense."
    )


if __name__ == "__main__":
    main()
