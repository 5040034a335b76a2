"""SplitLayout: the attacker's view of a split-manufactured design.

Bundles the FEOL-visible information (fragments, virtual pins, layout
occupancy, library data) together with the training-time-only ground
truth, and provides the virtual-pin-pair (VPP) vocabulary of Sec. 2.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..layout.design import Design
from ..layout.geometry import preferred_axis
from .fragments import SINK, SOURCE, THROUGH, Fragment, VirtualPin, extract_fragments


@dataclass(frozen=True)
class VPP:
    """A virtual pin pair: one sink-fragment VP and one source-fragment VP."""

    sink_vp: VirtualPin
    source_vp: VirtualPin

    @property
    def sink_fragment(self) -> int:
        return self.sink_vp.fragment_id

    @property
    def source_fragment(self) -> int:
        return self.source_vp.fragment_id


@dataclass
class SplitLayout:
    """A design split after ``split_layer`` plus attack bookkeeping."""

    design: Design
    split_layer: int
    fragments: list[Fragment]
    truth: dict[int, int]  # sink fragment id -> source fragment id
    _by_id: dict[int, Fragment] = field(default_factory=dict)
    # Per-fragment values that feature code derives once per layout
    # (keyed by the deriving code's own tuples); a fragment's wiring
    # and the design never change after the split.
    memo: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self._by_id = {f.fragment_id: f for f in self.fragments}

    @property
    def name(self) -> str:
        return self.design.name

    def fragment(self, fragment_id: int) -> Fragment:
        return self._by_id[fragment_id]

    @property
    def sink_fragments(self) -> list[Fragment]:
        return [f for f in self.fragments if f.kind == SINK]

    @property
    def source_fragments(self) -> list[Fragment]:
        return [f for f in self.fragments if f.kind == SOURCE]

    @property
    def through_fragments(self) -> list[Fragment]:
        """Pinless route-through fragments (not part of the VPP problem)."""
        return [f for f in self.fragments if f.kind == THROUGH]

    @property
    def n_hidden_sink_pins(self) -> int:
        """Total sink pins whose connection the BEOL hides (CCR denominator)."""
        return sum(f.n_sinks for f in self.sink_fragments)

    def is_positive(self, vpp: VPP) -> bool:
        """True if the VPP is truly connected in the BEOL (training only)."""
        return self.truth.get(vpp.sink_fragment) == vpp.source_fragment

    # -- geometry helpers used by features and candidate selection -------
    @property
    def preferred_axis(self) -> int:
        """Preferred routing axis of the split layer: 0 = x, 1 = y."""
        return preferred_axis(self.split_layer)

    def vpp_deltas(self, vpp: VPP) -> tuple[int, int]:
        """(preferred, non-preferred) signed distance source - sink."""
        dx = vpp.source_vp.x - vpp.sink_vp.x
        dy = vpp.source_vp.y - vpp.sink_vp.y
        if self.preferred_axis == 0:
            return dx, dy
        return dy, dx

    def occupancy_grids(self) -> np.ndarray:
        """Dense FEOL wiring occupancy, shape (split_layer, W, H).

        ``grids[l-1, x, y]`` counts nets with wiring at (l, x, y); the
        image features derive the "other fragments" layer bits from it.
        """
        fp = self.design.floorplan
        grids = np.zeros((self.split_layer, fp.width, fp.height), dtype=np.int16)
        for route in self.design.routes.values():
            for layer, x, y in route.nodes:
                if layer <= self.split_layer:
                    grids[layer - 1, x, y] += 1
        return grids

    def stats(self) -> dict[str, float]:
        sinks = self.sink_fragments
        sources = self.source_fragments
        return {
            "split_layer": self.split_layer,
            "sink_fragments": len(sinks),
            "source_fragments": len(sources),
            "hidden_sink_pins": self.n_hidden_sink_pins,
            "virtual_pins": sum(len(f.virtual_pins) for f in self.fragments),
            "multi_vp_fragments": sum(
                1 for f in self.fragments if len(f.virtual_pins) > 1
            ),
        }


def split_design(design: Design, split_layer: int) -> SplitLayout:
    """Split a routed design after ``split_layer`` (the paper's M1/M3)."""
    fragments, truth = extract_fragments(design, split_layer)
    return SplitLayout(design, split_layer, fragments, truth)
