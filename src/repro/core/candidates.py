"""Candidate VPP selection (paper Sec. 4.1).

Considering all sink x source pairs is hopeless (N^2 pairs, 1/N
positive), so the paper selects up to n candidates per sink fragment
with three criteria, all reproduced here:

1. **direction** — a VPP is dropped only when *neither* pin prefers the
   other.  Pin p prefers pin q when q lies on the opposite side of a
   wire segment attached to p (the BEOL continuation does not double
   back over existing wire); pins without split-layer segments (bare
   via stacks) prefer everything.  The rule is deliberately loose, per
   the paper's observation that non-preferred-direction wires are
   common in congested designs.  (``attacks/network_flow.py`` uses no
   direction information at all: its candidate edges are the k nearest
   sources by distance.)
2. **non-duplication** — fragments can expose several virtual pins; per
   (sink fragment, source fragment) pair only the VPP closest along the
   split layer's non-preferred direction survives (net length is
   bounded by timing closure).
3. **distance** — of the remaining VPPs, the n closest along the
   non-preferred direction win; ties fall back to the preferred
   direction.
"""

from __future__ import annotations

from ..split.fragments import Fragment, VirtualPin
from ..split.split import VPP, SplitLayout


def segment_side_signs(
    fragment: Fragment, vp: VirtualPin, split_layer: int
) -> dict[int, set[int]]:
    """Allowed continuation signs per axis for a virtual pin.

    Returns ``{axis: signs}`` where axis 0 = x, 1 = y.  For each
    split-layer segment attached to the pin: if the pin is the segment
    endpoint, continuation is allowed away from the segment body
    (opposite side); if the pin is interior, both sides are allowed.
    Axes without any attached segment allow both signs.
    """
    allowed: dict[int, set[int]] = {0: set(), 1: set()}
    touched: dict[int, bool] = {0: False, 1: False}
    for seg in fragment.split_layer_segments_at(vp.xy, split_layer):
        if seg.length == 0:
            continue
        axis = 0 if seg.direction == "H" else 1
        touched[axis] = True
        lo, hi = (seg.x1, seg.x2) if axis == 0 else (seg.y1, seg.y2)
        pos = vp.xy[axis]
        if pos == lo and pos == hi:
            continue
        if pos == lo:
            allowed[axis].add(-1)  # segment extends to +, continue to -
        elif pos == hi:
            allowed[axis].add(+1)
        else:  # interior: wire passes through, both continuations fine
            allowed[axis].update((-1, +1))
    for axis in (0, 1):
        if not touched[axis]:
            allowed[axis] = {-1, +1}
    return allowed


def prefers(
    fragment_p: Fragment,
    vp_p: VirtualPin,
    vp_q: VirtualPin,
    split_layer: int,
) -> bool:
    """True when pin p prefers pin q (Sec. 4.1 direction criterion)."""
    allowed = segment_side_signs(fragment_p, vp_p, split_layer)
    for axis in (0, 1):
        delta = vp_q.xy[axis] - vp_p.xy[axis]
        if delta == 0:
            continue
        sign = 1 if delta > 0 else -1
        if sign not in allowed[axis]:
            return False
    return True


def direction_compatible(
    sink_frag: Fragment,
    sink_vp: VirtualPin,
    source_frag: Fragment,
    source_vp: VirtualPin,
    split_layer: int,
) -> bool:
    """Keep the VPP unless *both* pins reject each other (Table 1)."""
    return prefers(sink_frag, sink_vp, source_vp, split_layer) or prefers(
        source_frag, source_vp, sink_vp, split_layer
    )


def select_candidates(
    split: SplitLayout,
    sink: Fragment,
    n: int,
    sources: list[Fragment] | None = None,
) -> list[VPP]:
    """Up to ``n`` candidate VPPs for one sink fragment.

    Deterministic: ties break on fragment id, then pin coordinates.
    """
    if sources is None:
        sources = split.source_fragments
    np_axis = 1 - split.preferred_axis  # non-preferred axis index

    best_per_source: dict[int, tuple[tuple[int, int, int, int], VPP]] = {}
    for source in sources:
        for svp in sink.virtual_pins:
            for qvp in source.virtual_pins:
                if not direction_compatible(
                    sink, svp, source, qvp, split.split_layer
                ):
                    continue
                d_np = abs(qvp.xy[np_axis] - svp.xy[np_axis])
                d_p = abs(
                    qvp.xy[1 - np_axis] - svp.xy[1 - np_axis]
                )
                key = (d_np, d_p, qvp.xy[0], qvp.xy[1])
                prev = best_per_source.get(source.fragment_id)
                if prev is None or key < prev[0]:
                    best_per_source[source.fragment_id] = (key, VPP(svp, qvp))

    ranked = sorted(
        best_per_source.items(), key=lambda item: (item[1][0], item[0])
    )
    return [vpp for _sid, (_key, vpp) in ranked[:n]]


def build_candidates(
    split: SplitLayout, n: int
) -> dict[int, list[VPP]]:
    """Candidate lists for every sink fragment of a split layout."""
    sources = split.source_fragments
    return {
        sink.fragment_id: select_candidates(split, sink, n, sources)
        for sink in split.sink_fragments
    }


def candidate_recall(split: SplitLayout, candidates: dict[int, list[VPP]]) -> float:
    """Fraction of sink fragments whose true source survived selection.

    This bounds the attack's CCR from above: "If the positive VPP is
    not included, the predicted connection will definitely be wrong."
    """
    sinks = split.sink_fragments
    if not sinks:
        return 1.0
    hits = 0
    for sink in sinks:
        truth = split.truth.get(sink.fragment_id)
        vpps = candidates.get(sink.fragment_id, [])
        if any(vpp.source_fragment == truth for vpp in vpps):
            hits += 1
    return hits / len(sinks)
