"""Optimality oracle for the network-flow attack's min-cost flow.

With every fanout budget pinned to 1, the flow problem has unit
capacities and is an assignment problem: each sink takes one of its
k-nearest sources (cost: VPP distance) or its own escape edge (cost
``_UNMATCHED_COST``), and each source feeds at most one sink.  The
network simplex's total cost must then equal the optimum that
``scipy.optimize.linear_sum_assignment`` finds on the same cost matrix.
Runs on the committed layouts.
"""

from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from repro.attacks.network_flow import _UNMATCHED_COST, NetworkFlowAttack
from repro.pipeline import clear_memo, get_split
from repro.split.pins import PinTable

COMMITTED = Path(__file__).resolve().parents[2] / ".repro_cache"


@pytest.fixture()
def committed_split(monkeypatch):
    def load(design, layer):
        if not (COMMITTED / f"{design}.def").exists():
            pytest.skip("committed warm cache not present")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(COMMITTED))
        clear_memo()
        try:
            return get_split(design, layer)  # reads the committed DEF
        finally:
            clear_memo()

    return load


def assignment_optimum(attack, split) -> int:
    """Min total cost over the flow graph's edges, as an assignment:
    one row per sink; one column per source, then one escape column
    per sink."""
    sinks, sources = split.sink_fragments, split.source_fragments
    column = {src.fragment_id: i for i, src in enumerate(sources)}
    pins = PinTable(sources)
    cost = np.full((len(sinks), len(sources) + len(sinks)), np.inf)
    for row, sink in enumerate(sinks):
        for dist, src_id in attack._nearest_sources(sink, pins):
            cost[row, column[src_id]] = dist * attack.distance_scale
        cost[row, len(sources) + row] = _UNMATCHED_COST
    rows, cols = linear_sum_assignment(cost)
    return int(cost[rows, cols].sum())


@pytest.mark.parametrize(
    "design,layer", [("c432", 1), ("c880", 1), ("c432", 3)]
)
def test_unit_capacity_flow_cost_equals_assignment_optimum(
    committed_split, monkeypatch, design, layer
):
    split = committed_split(design, layer)
    attack = NetworkFlowAttack()
    monkeypatch.setattr(
        NetworkFlowAttack, "_fanout_budget", lambda self, split, src, cap: 1
    )
    solved = []
    min_cost_flow = nx.min_cost_flow

    def recording_min_cost_flow(graph, *args, **kwargs):
        flow = min_cost_flow(graph, *args, **kwargs)
        solved.append(nx.cost_of_flow(graph, flow))
        return flow

    monkeypatch.setattr(nx, "min_cost_flow", recording_min_cost_flow)
    assignment = attack.select(split)

    assert len(solved) == 1
    assert solved[0] == assignment_optimum(attack, split)
    # Unit capacities: no source drives two sinks.
    assert len(set(assignment.values())) == len(assignment)
