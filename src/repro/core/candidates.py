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

Cost model: each pin's direction preference is reduced once per layout
to four allowed-sign bits ``(-x, +x, -y, +y)``, and the source pins are
flattened into one :class:`~repro.split.pins.PinTable`.  Selection then
runs one sink at a time as array operations over that sink's pins x all
source pins: O(sink pins x source pins) time and memory per sink, never
a whole-layout sinks x pins matrix.  The result equals the pair-by-pair
definition above, first-wins ties included: ``tests/core/
test_candidates_oracle.py`` holds the scalar triple loop as the oracle.
"""

from __future__ import annotations

import numpy as np

from ..split.fragments import Fragment, VirtualPin
from ..split.pins import PinTable
from ..split.split import VPP, SplitLayout

# Rows of a pin's allowed-sign bits: continuation towards -x, +x, -y, +y.
_NEG_X, _POS_X, _NEG_Y, _POS_Y = range(4)
# Packed selection key of a VPP that fails the direction criterion.
_EXCLUDED = np.iinfo(np.int64).max


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


def _sign_row(
    fragment: Fragment, vp: VirtualPin, split_layer: int
) -> tuple[bool, bool, bool, bool]:
    allowed = segment_side_signs(fragment, vp, split_layer)
    return (-1 in allowed[0], 1 in allowed[0], -1 in allowed[1], 1 in allowed[1])


def _sign_bits(fragments: list[Fragment], split_layer: int) -> np.ndarray:
    """(4, pins) bool allowed-sign bits of every pin of ``fragments``,
    in fragment then pin order (the :class:`PinTable` order)."""
    rows = [
        _sign_row(fragment, vp, split_layer)
        for fragment in fragments
        for vp in fragment.virtual_pins
    ]
    return np.array(rows, dtype=bool).reshape(-1, 4).T


def _prefers(bits: np.ndarray, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Where pin p (sign bits ``bits``) prefers the pin at offset (dx, dy)."""
    ok_x = (dx == 0) | np.where(dx > 0, bits[_POS_X], bits[_NEG_X])
    ok_y = (dy == 0) | np.where(dy > 0, bits[_POS_Y], bits[_NEG_Y])
    return ok_x & ok_y


def direction_mask(
    sink_bits: np.ndarray,
    source_bits: np.ndarray,
    dx: np.ndarray,
    dy: np.ndarray,
) -> np.ndarray:
    """The Table 1 rule over (sink pins, source pins) offsets: keep a
    VPP unless *both* pins reject each other.  ``dx``/``dy`` are source
    minus sink; the bit arrays broadcast against them."""
    return _prefers(sink_bits, dx, dy) | _prefers(source_bits, -dx, -dy)


def prefers(
    fragment_p: Fragment,
    vp_p: VirtualPin,
    vp_q: VirtualPin,
    split_layer: int,
) -> bool:
    """True when pin p prefers pin q (Sec. 4.1 direction criterion)."""
    bits = np.array(_sign_row(fragment_p, vp_p, split_layer))
    return bool(_prefers(bits, vp_q.x - vp_p.x, vp_q.y - vp_p.y))


def direction_compatible(
    sink_frag: Fragment,
    sink_vp: VirtualPin,
    source_frag: Fragment,
    source_vp: VirtualPin,
    split_layer: int,
) -> bool:
    """Keep the VPP unless *both* pins reject each other (Table 1)."""
    return bool(
        direction_mask(
            np.array(_sign_row(sink_frag, sink_vp, split_layer)),
            np.array(_sign_row(source_frag, source_vp, split_layer)),
            source_vp.x - sink_vp.x,
            source_vp.y - sink_vp.y,
        )
    )


class _Selector:
    """Candidate selection against one fixed set of source fragments."""

    def __init__(self, split: SplitLayout, sources: list[Fragment]):
        self.split_layer = split.split_layer
        self.np_axis = 1 - split.preferred_axis  # non-preferred axis index
        self.pins = PinTable(sources)
        self.bits = _sign_bits(self.pins.fragments, self.split_layer)
        fp = split.design.floorplan
        # Pins lie on the die, so every key component is in [0, base):
        # the packed key orders VPPs exactly as the tuple
        # (d_np, d_p, qx, qy) does.
        self.base = max(fp.width, fp.height, 1)
        px = self.pins.x * self.base + self.pins.y
        self.pin_key = px[None, :]

    def select(self, sink: Fragment, n: int) -> list[VPP]:
        if not len(self.pins) or not sink.virtual_pins:
            return []
        pins = self.pins
        dx, dy = pins.deltas(sink)  # (sink pins, source pins)
        keep = direction_mask(
            _sign_bits([sink], self.split_layer)[:, :, None],
            self.bits[:, None, :],
            dx,
            dy,
        )
        d_np, d_p = (dy, dx) if self.np_axis == 1 else (dx, dy)
        base = self.base
        key = (np.abs(d_np) * base + np.abs(d_p)) * base * base + self.pin_key
        key = np.where(keep, key, _EXCLUDED)
        # Per source pin, then per source fragment, the smallest key.
        # The key holds the source pin's coordinates, so a fragment's
        # minimum names one pin; of the sink pins reaching it, argmin
        # takes the first, as the scalar loop's strict "<" does.
        pin_best = key.min(axis=0)
        frag_best = np.minimum.reduceat(pin_best, pins.starts)
        winners = np.flatnonzero(
            (pin_best == frag_best[pins.owner]) & (pin_best != _EXCLUDED)
        )
        ranked = winners[
            np.lexsort(
                (pins.fragment_ids[pins.owner[winners]], pin_best[winners])
            )[:n]
        ]
        sink_pin = key[:, ranked].argmin(axis=0)
        return [
            VPP(sink.virtual_pins[i], pins.pins[j])
            for i, j in zip(sink_pin.tolist(), ranked.tolist())
        ]


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
    return _Selector(split, sources).select(sink, n)


def build_candidates(
    split: SplitLayout, n: int
) -> dict[int, list[VPP]]:
    """Candidate lists for every sink fragment of a split layout."""
    selector = _Selector(split, split.source_fragments)
    return {
        sink.fragment_id: selector.select(sink, n)
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
