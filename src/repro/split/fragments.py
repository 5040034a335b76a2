"""Fragment and virtual-pin extraction from FEOL wiring (paper Fig. 1).

Splitting a routed design after metal layer L removes every wire above
L and every via crossing L -> L+1.  What remains of each net is a set
of connected *fragments*; the removed crossing vias become *virtual
pins* — the locations where the BEOL would have continued.  A fragment
containing the net's driver is a **source fragment**; fragments
containing sink pins are **sink fragments**.  The attacker sees all
fragments and virtual pins but not which source connects to which sink.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..layout.design import Design
from ..layout.geometry import Segment
from ..layout.routing import NetRoute, Node, is_via_edge
from ..netlist.netlist import Terminal

SOURCE = "source"
SINK = "sink"
# A route-through fragment: FEOL wiring with virtual pins but no pins of
# its own (e.g. the middle jog of a Z-shape whose ends climbed back into
# the BEOL).  Real layouts contain these; they carry no connection to
# predict and are excluded from the VPP problem, matching the paper's
# source/sink-only formulation.
THROUGH = "through"


@dataclass(frozen=True)
class VirtualPin:
    """A via location on the split layer that continued into the BEOL."""

    fragment_id: int
    x: int
    y: int

    @property
    def xy(self) -> tuple[int, int]:
        return (self.x, self.y)


@dataclass
class Fragment:
    """A connected component of one net's FEOL wiring."""

    fragment_id: int
    net: str
    kind: str  # SOURCE or SINK
    nodes: set[Node] = field(default_factory=set)
    edges: set[tuple[Node, Node]] = field(default_factory=set)
    virtual_pins: list[VirtualPin] = field(default_factory=list)
    driver: Terminal | None = None
    sinks: list[Terminal] = field(default_factory=list)
    internal_sinks: list[Terminal] = field(default_factory=list)
    # Split-layer segments by layer, built from ``edges`` on first use:
    # a fragment's FEOL wiring does not change after extraction, and
    # the direction rule reads them for every pin.
    _segments: dict[int, list[Segment]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def n_sinks(self) -> int:
        """The paper's c_i: sink pins restored when this fragment is
        correctly matched."""
        return len(self.sinks)

    def wirelength_by_layer(self) -> dict[int, int]:
        lengths: dict[int, int] = {}
        for a, _b in self.edges:
            if a[0] == _b[0]:
                lengths[a[0]] = lengths.get(a[0], 0) + 1
        return lengths

    def vias_by_cut(self) -> dict[int, int]:
        cuts: dict[int, int] = {}
        for a, b in self.edges:
            if a[0] != b[0]:
                low = min(a[0], b[0])
                cuts[low] = cuts.get(low, 0) + 1
        return cuts

    @property
    def total_wirelength(self) -> int:
        return sum(self.wirelength_by_layer().values())

    def segments_on_layer(self, layer: int) -> list[Segment]:
        """Maximal straight segments of this fragment on one layer."""
        if layer not in self._segments:
            route = NetRoute(
                self.net, nodes=set(self.nodes), edges=set(self.edges)
            )
            self._segments[layer] = [
                s for s in route.segments() if s.layer == layer
            ]
        return list(self._segments[layer])

    def split_layer_segments_at(self, xy: tuple[int, int], layer: int) -> list[Segment]:
        """Split-layer segments incident to a virtual pin location."""
        incident = []
        for seg in self.segments_on_layer(layer):
            if seg.direction == "H" and seg.y1 == xy[1] and seg.x1 <= xy[0] <= seg.x2:
                incident.append(seg)
            elif seg.direction == "V" and seg.x1 == xy[0] and seg.y1 <= xy[1] <= seg.y2:
                incident.append(seg)
        return incident


def extract_fragments(
    design: Design, split_layer: int
) -> tuple[list[Fragment], dict[int, int]]:
    """Extract all fragments of all cut nets.

    Returns ``(fragments, truth)`` where ``truth`` maps each sink
    fragment id to the id of its net's source fragment.  Nets routed
    entirely within the FEOL produce no fragments (nothing is hidden
    from the attacker).  Ground truth is derived from the pre-split
    design, exactly like the paper's training labels: "The BEOL is only
    available at training time".
    """
    if split_layer < 1 or split_layer >= design.floorplan.n_layers:
        raise ValueError(
            f"split layer must be in [1, {design.floorplan.n_layers - 1}]"
        )
    fragments: list[Fragment] = []
    truth: dict[int, int] = {}

    for net_name in sorted(design.routes):
        route = design.routes[net_name]
        net = design.netlist.nets[net_name]
        net_fragments = _split_net(
            route, net_name, split_layer, len(fragments), design
        )
        if not net_fragments:
            continue
        source = [f for f in net_fragments if f.kind == SOURCE]
        sinks = [f for f in net_fragments if f.kind == SINK]
        if len(source) != 1:
            raise RuntimeError(
                f"net {net_name}: expected exactly 1 source fragment, "
                f"got {len(source)}"
            )
        fragments.extend(net_fragments)
        for frag in sinks:
            truth[frag.fragment_id] = source[0].fragment_id
        del net  # silence linters; net kept for clarity
    return fragments, truth


def _split_net(
    route: NetRoute,
    net_name: str,
    split_layer: int,
    next_id: int,
    design: Design,
) -> list[Fragment]:
    feol_nodes = {n for n in route.nodes if n[0] <= split_layer}
    feol_edges = {
        e
        for e in route.edges
        if e[0][0] <= split_layer and e[1][0] <= split_layer
    }
    # Vias crossing the split boundary become virtual pins.
    crossing = [
        e
        for e in route.edges
        if is_via_edge(e)
        and min(e[0][0], e[1][0]) == split_layer
        and max(e[0][0], e[1][0]) == split_layer + 1
    ]
    if not crossing:
        return []  # net entirely within FEOL: not part of the problem

    components = _connected_components(feol_nodes, feol_edges)
    node_to_comp: dict[Node, int] = {}
    for idx, comp in enumerate(components):
        for node in comp:
            node_to_comp[node] = idx

    # Locate netlist terminals (pins) in components via their M1 node.
    net = design.netlist.nets[net_name]
    comp_driver: dict[int, Terminal] = {}
    comp_sinks: dict[int, list[Terminal]] = {}
    for term in net.terminals():
        x, y = design.terminal_location(term)
        comp = node_to_comp.get((1, x, y))
        if comp is None:
            raise RuntimeError(
                f"net {net_name}: pin {term} at ({x},{y}) not on wiring"
            )
        if term is net.driver or (net.driver is not None and term == net.driver):
            comp_driver[comp] = term
        else:
            comp_sinks.setdefault(comp, []).append(term)

    comp_vps: dict[int, list[tuple[int, int]]] = {}
    for e in crossing:
        lower = e[0] if e[0][0] == split_layer else e[1]
        comp = node_to_comp[lower]
        comp_vps.setdefault(comp, []).append((lower[1], lower[2]))

    fragments: list[Fragment] = []
    for idx, comp in enumerate(components):
        vps = comp_vps.get(idx, [])
        driver = comp_driver.get(idx)
        sinks = comp_sinks.get(idx, [])
        if not vps:
            # Fully-FEOL side piece: connected to nothing hidden.  With
            # one component this is an uncut net; with several it would
            # contradict net connectivity (checked in the router).
            if len(components) == 1:
                return []
            raise RuntimeError(
                f"net {net_name}: disconnected FEOL component without "
                f"virtual pins"
            )
        if driver is not None:
            kind = SOURCE
        elif sinks:
            kind = SINK
        else:
            kind = THROUGH
        frag = Fragment(
            fragment_id=next_id + len(fragments),
            net=net_name,
            kind=kind,
            nodes=set(comp),
            edges={
                e for e in feol_edges
                if e[0] in comp
            },
            driver=driver,
            sinks=sinks if kind == SINK else [],
            internal_sinks=sinks if kind == SOURCE else [],
        )
        frag.virtual_pins = [
            VirtualPin(frag.fragment_id, x, y) for x, y in sorted(set(vps))
        ]
        fragments.append(frag)
    return fragments


def _connected_components(
    nodes: set[Node], edges: set[tuple[Node, Node]]
) -> list[set[Node]]:
    adjacency: dict[Node, list[Node]] = {n: [] for n in nodes}
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    seen: set[Node] = set()
    components: list[set[Node]] = []
    for start in sorted(nodes):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        seen.add(start)
        while stack:
            u = stack.pop()
            for v in adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    comp.add(v)
                    stack.append(v)
        components.append(comp)
    return components
