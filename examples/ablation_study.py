#!/usr/bin/env python3
"""Regenerate the paper's Figure 5: loss and image-feature ablation.

Three attack variants are trained on the same corpus and compared on
the M3 split (Figure 5a: average CCR; Figure 5b: inference time):

* two-class — vector features, traditional two-class loss (Eq. 3);
* vec       — vector features, softmax regression loss (Eq. 6);
* vec&img   — softmax loss + image features (the full attack).

Paper result: softmax gives 1.07x the baseline CCR, images push it to
1.09x, with comparable inference time.

The study runs through the ``ablation`` registry grid on
:class:`repro.api.Client` (local backend), so every cell lands in the
results store and an interrupted run resumes from it instead of
retraining.

Run:  python examples/ablation_study.py [--designs c432 c880 ...]
"""

import argparse

from repro.api import Client, message_printer

DEFAULT_DESIGNS = ["c432", "c880", "c1355", "b11"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--designs", nargs="+", default=DEFAULT_DESIGNS)
    parser.add_argument("--layer", type=int, default=3)
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: $REPRO_WORKERS or serial; "
        "0 = all cores)",
    )
    args = parser.parse_args()

    with Client(workers=args.workers, on_event=message_printer()) as client:
        result = client.run(
            "ablation", {"designs": args.designs, "split_layer": args.layer}
        )
    report = result.report()
    print()
    print(report.render())

    gains = report.gains()
    print(
        f"\nsoftmax gain {gains['vec']:.2f}x (paper 1.07x), "
        f"with images {gains['vec&img']:.2f}x (paper 1.09x)"
    )


if __name__ == "__main__":
    main()
