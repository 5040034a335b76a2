"""The shared pin-distance kernel against the scalar loops it replaced.

``PinTable.nearest`` serves the proximity attack, the network-flow
k-nearest edges and the random forest's ranking.  Each must equal its
former per-pair loop exactly: proximity assignments, RF rankings with
their VPPs, and -- because network simplex breaks ties by edge order --
the flow graph's nodes and ``(u, v, capacity, weight)`` edges in
iteration order.  Runs on the committed layouts of the cold-attack cells.
"""

from pathlib import Path

import networkx as nx
import pytest

from repro.attacks import NetworkFlowAttack, ProximityAttack, RandomForestAttack
from repro.attacks.network_flow import (
    _SUPER_SINK,
    _SUPER_SOURCE,
    _UNMATCHED_COST,
    _min_sink_cap,
)
from repro.cells.timing import load_lower_bound_ff
from repro.pipeline import clear_memo, get_split
from repro.split import VPP
from repro.split.pins import PinTable

COMMITTED = Path(__file__).resolve().parents[2] / ".repro_cache"
CELLS = [
    (design, layer)
    for design in ("c432", "c880", "c1355", "c1908", "c2670")
    for layer in (1, 3)
]


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


# -- scalar oracles -------------------------------------------------------


def scalar_proximity(split):
    source_vps = [
        (vp.x, vp.y, frag.fragment_id)
        for frag in split.source_fragments
        for vp in frag.virtual_pins
    ]
    assignment = {}
    for sink in split.sink_fragments:
        best = None
        for svp in sink.virtual_pins:
            for x, y, src_id in source_vps:
                key = (abs(svp.x - x) + abs(svp.y - y), src_id)
                if best is None or key < best:
                    best = key
        if best is not None:
            assignment[sink.fragment_id] = best[1]
    return assignment


def scalar_rf_ranking(sink, sources):
    ranked = []
    for source in sources:
        best = None
        for svp in sink.virtual_pins:
            for qvp in source.virtual_pins:
                d = abs(svp.x - qvp.x) + abs(svp.y - qvp.y)
                if best is None or d < best[0]:
                    best = (d, VPP(svp, qvp))
        if best is not None:
            ranked.append((best[0], best[1], source.fragment_id))
    ranked.sort(key=lambda item: (item[0], item[2]))
    return [(vpp, src_id) for _d, vpp, src_id in ranked]


def scalar_flow_graph(attack, split):
    """The flow graph as built pair by pair, min sink cap per source."""
    sinks, sources = split.sink_fragments, split.source_fragments
    graph = nx.DiGraph()
    graph.add_node(_SUPER_SOURCE, demand=-len(sinks))
    graph.add_node(_SUPER_SINK, demand=len(sinks))
    for src in sources:
        driver_cell = split.design.driver_cell(src.net)
        if driver_cell is None:
            budget = max(4, len(sinks))
        else:
            caps = [
                split.design.sink_pin_capacitance(t) for t in src.internal_sinks
            ]
            used = load_lower_bound_ff(caps, src.total_wirelength, 0.0)
            remaining = max(0.0, driver_cell.max_load_ff - used)
            min_cap = _min_sink_cap(split)
            budget = max(1, int(remaining / min_cap) if min_cap > 0 else 1)
        graph.add_edge(
            _SUPER_SOURCE, ("src", src.fragment_id), capacity=budget, weight=0
        )
    for sink in sinks:
        graph.add_edge(("snk", sink.fragment_id), _SUPER_SINK, capacity=1, weight=0)
        graph.add_edge(
            _SUPER_SOURCE, ("snk", sink.fragment_id),
            capacity=1, weight=_UNMATCHED_COST,
        )
        best = []
        for src in sources:
            d = min(
                abs(svp.x - tvp.x) + abs(svp.y - tvp.y)
                for svp in sink.virtual_pins
                for tvp in src.virtual_pins
            )
            best.append((d, src.fragment_id))
        best.sort()
        for dist, src_id in best[: attack.k_nearest]:
            graph.add_edge(
                ("src", src_id), ("snk", sink.fragment_id),
                capacity=1, weight=dist * attack.distance_scale,
            )
    return graph


def as_lists(graph):
    return (
        list(graph.nodes(data=True)),
        [
            (u, v, d["capacity"], d["weight"], type(d["weight"]))
            for u, v, d in graph.edges(data=True)
        ],
    )


# -- tests ----------------------------------------------------------------


@pytest.mark.parametrize("design,layer", CELLS)
def test_proximity_equals_scalar(committed_split, design, layer):
    split = committed_split(design, layer)
    assert ProximityAttack().select(split) == scalar_proximity(split)


@pytest.mark.parametrize("design,layer", CELLS)
def test_rf_ranking_equals_scalar(committed_split, design, layer):
    split = committed_split(design, layer)
    sources = split.source_fragments
    pins = PinTable(sources)
    for sink in split.sink_fragments:
        assert RandomForestAttack._nearest_sources(sink, pins) == (
            scalar_rf_ranking(sink, sources)
        )


@pytest.mark.parametrize("k_nearest", [40, 3])
@pytest.mark.parametrize("design,layer", CELLS)
def test_flow_graph_equals_scalar(
    committed_split, monkeypatch, design, layer, k_nearest
):
    split = committed_split(design, layer)
    attack = NetworkFlowAttack(k_nearest=k_nearest)
    graphs = []
    min_cost_flow = nx.min_cost_flow

    def recording(graph, *args, **kwargs):
        graphs.append(graph)
        return min_cost_flow(graph, *args, **kwargs)

    monkeypatch.setattr(nx, "min_cost_flow", recording)
    result = attack.attack(split)
    assert len(graphs) == 1
    assert as_lists(graphs[0]) == as_lists(scalar_flow_graph(attack, split))

    # The record extras, re-derived from the assignment: every sink gets
    # one unit, from a source or over its escape edge.
    stats = result.extra["flow"]
    sinks = split.sink_fragments
    assert stats["escape_sinks"] == len(sinks) - len(result.assignment)
    loads = {}
    for src_id in result.assignment.values():
        loads[src_id] = loads.get(src_id, 0) + 1
    capacity = {
        v[1]: d["capacity"]
        for _u, v, d in graphs[0].out_edges(_SUPER_SOURCE, data=True)
        if v[0] == "src"
    }
    assert stats["saturated_sources"] == sum(
        loads.get(src, 0) >= cap for src, cap in capacity.items()
    )
    in_knn = sum(
        graphs[0].has_edge(("src", split.truth[s.fragment_id]), ("snk", s.fragment_id))
        for s in sinks
    )
    assert stats["knn_truth_recall"] == in_knn / len(sinks)
