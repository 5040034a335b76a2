"""The naïve proximity attack of Rajendran et al. [8].

For every sink fragment, pick the source fragment with the closest
virtual pin (Manhattan distance between virtual pins).  This is the
attack the network-flow formulation relaxes to when capacitance
constraints are loose, and the historical baseline both the paper and
Wang et al. compare against.
"""

from __future__ import annotations

import numpy as np

from ..split.pins import PinTable
from ..split.split import SplitLayout
from .base import Attack


class ProximityAttack(Attack):
    name = "proximity"

    def select(self, split: SplitLayout) -> dict[int, int]:
        """Pick the closest source virtual pin for every sink fragment:
        the smallest (pin distance, source fragment id)."""
        pins = PinTable(split.source_fragments)
        assignment: dict[int, int] = {}
        if not len(pins):
            return assignment
        for sink in split.sink_fragments:
            dist, _, _ = pins.nearest(sink)
            if dist.size:
                best = np.lexsort((pins.fragment_ids, dist))[0]
                assignment[sink.fragment_id] = int(pins.fragment_ids[best])
        return assignment
