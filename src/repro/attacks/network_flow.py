"""The network-flow attack of Wang et al. [1] ("the cat and mouse in
split manufacturing", TVLSI 2018) — the state of the art the paper
compares against.

Formulation (Sec. 1 of the paper): *proximity as cost, capacitance as
capacity*.  A min-cost flow problem connects every sink fragment to
exactly one source fragment:

    super-source S --(cap: remaining fanout budget, cost 0)--> source_i
    source_i --(cap 1, cost: VPP distance)--> sink_j
    sink_j --(cap 1, cost 0)--> super-sink T

The fanout budget of a driver is ``floor(remaining load cap / min sink
cap)`` from the cell library — exactly the capacitance bound the threat
model grants the attacker.  When that bound is loose the formulation
degenerates into the naïve proximity attack, as the paper notes.

Runtime scales super-linearly with design size (network simplex over a
near-bipartite graph), reproducing the time-out behaviour of Table 3.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from ..cells.timing import load_lower_bound_ff, wire_capacitance_ff
from ..split.fragments import Fragment
from ..split.metrics import report_extra
from ..split.pins import PinTable
from ..split.split import SplitLayout
from .base import Attack

_SUPER_SOURCE = "S"
_SUPER_SINK = "T"
_UNMATCHED_COST = 10_000_000


class NetworkFlowAttack(Attack):
    """Min-cost-flow VPP matching.

    ``k_nearest`` prunes each sink's candidate edges to its k closest
    sources — needed to keep the graph buildable for the large designs;
    the paper's binary worked on full graphs and timed out there.
    """

    name = "network-flow"

    def __init__(self, k_nearest: int = 40, distance_scale: int = 1):
        if k_nearest < 1:
            raise ValueError("k_nearest must be >= 1")
        self.k_nearest = k_nearest
        self.distance_scale = distance_scale

    def select(self, split: SplitLayout) -> dict[int, int]:
        """Solve the min-cost-flow matching and read the assignment."""
        sinks = split.sink_fragments
        sources = split.source_fragments
        if not sinks or not sources:
            return {}

        graph = nx.DiGraph()
        demand = len(sinks)
        graph.add_node(_SUPER_SOURCE, demand=-demand)
        graph.add_node(_SUPER_SINK, demand=demand)

        min_cap = _min_sink_cap(split)
        budgets = [self._fanout_budget(split, src, min_cap) for src in sources]
        for src, budget in zip(sources, budgets):
            graph.add_edge(
                _SUPER_SOURCE,
                ("src", src.fragment_id),
                capacity=budget,
                weight=0,
            )
        pins = PinTable(sources)
        knn_truth = 0
        for sink in sinks:
            graph.add_edge(
                ("snk", sink.fragment_id), _SUPER_SINK, capacity=1, weight=0
            )
            # Escape edge: keeps the problem feasible when capacities
            # are tight; a sink taking it stays unmatched.
            graph.add_edge(
                _SUPER_SOURCE,
                ("snk", sink.fragment_id),
                capacity=1,
                weight=_UNMATCHED_COST,
            )
            truth = split.truth.get(sink.fragment_id)
            for dist, src_id in self._nearest_sources(sink, pins):
                knn_truth += src_id == truth
                graph.add_edge(
                    ("src", src_id),
                    ("snk", sink.fragment_id),
                    capacity=1,
                    weight=dist * self.distance_scale,
                )

        flow = nx.min_cost_flow(graph)
        assignment: dict[int, int] = {}
        for src in sources:
            for node, value in flow.get(("src", src.fragment_id), {}).items():
                if value > 0 and isinstance(node, tuple) and node[0] == "snk":
                    assignment[node[1]] = src.fragment_id
        fed = flow[_SUPER_SOURCE]
        report_extra(
            flow={
                # sinks whose true source is among their k-NN edges:
                # the attack's ceiling, whatever the capacities
                "knn_truth_recall": knn_truth / len(sinks),
                "saturated_sources": sum(
                    fed[("src", src.fragment_id)] >= budget
                    for src, budget in zip(sources, budgets)
                ),
                "escape_sinks": sum(
                    fed[("snk", sink.fragment_id)] > 0 for sink in sinks
                ),
            }
        )
        return assignment

    # -- model pieces -----------------------------------------------------
    def _fanout_budget(
        self, split: SplitLayout, source: Fragment, min_cap: float
    ) -> int:
        """How many more sink fragments this driver can feed.

        Derived from the driver's max load minus the load already
        visible in the FEOL (internal sinks + fragment wire), divided
        by ``min_cap``, the smallest sink load (:func:`_min_sink_cap`).
        """
        driver_cell = split.design.driver_cell(source.net)
        if driver_cell is None:  # primary-input pad: generous budget
            return max(4, len(split.sink_fragments))
        visible_caps = [
            split.design.sink_pin_capacitance(t) for t in source.internal_sinks
        ]
        used = load_lower_bound_ff(visible_caps, source.total_wirelength, 0.0)
        remaining = max(0.0, driver_cell.max_load_ff - used)
        budget = int(remaining / min_cap) if min_cap > 0 else 1
        return max(1, budget)

    def _nearest_sources(
        self, sink: Fragment, pins: PinTable
    ) -> list[tuple[int, int]]:
        """The ``k_nearest`` smallest (pin distance, source id) pairs."""
        dist, _, _ = pins.nearest(sink)
        order = np.lexsort((pins.fragment_ids, dist))[: self.k_nearest]
        return list(
            zip(dist[order].tolist(), pins.fragment_ids[order].tolist())
        )


def _min_sink_cap(split: SplitLayout) -> float:
    """Smallest input-pin capacitance in the design's library."""
    caps = [
        pin.capacitance_ff
        for gate in split.design.netlist.gates.values()
        for pin in gate.cell.input_pins
        if pin.capacitance_ff > 0
    ]
    if not caps:
        return 1.0
    # Account for a sink fragment's wire as part of its load.
    return min(caps) + wire_capacitance_ff(2.0)
