"""Candidate selection against the scalar triple loop it replaced.

``scalar_select`` is the pair-by-pair definition of Sec. 4.1: for every
source, every (sink pin, source pin) pair passing the direction rule is
keyed by (d_np, d_p, qx, qy), the first strictly smallest key per source
wins, and sources are ranked by (key, fragment id).  The array kernel of
``repro.core.candidates`` must produce identical lists -- same VPPs, same
order -- on every committed Table-3 and training layout at M1 and M3.
"""

from pathlib import Path

import pytest

import repro.core.candidates as cand_mod
from repro.core import build_candidates, select_candidates
from repro.core.candidates import segment_side_signs
from repro.netlist.benchmarks import TABLE3_SPECS, TRAINING_DESIGNS
from repro.pipeline import clear_memo, get_split
from repro.split import VPP

COMMITTED = Path(__file__).resolve().parents[2] / ".repro_cache"

# Cells whose scalar oracle takes longer than ~4 s (2-CPU x86 box):
# 4.3 s, 5.5 s, 11.6 s and 27.9 s.  Every other cell takes under 3.1 s.
SLOW = {("b14", 1), ("b15_1", 1), ("b17_1", 1), ("b18", 1)}


def scalar_prefers(frag, vp_p, vp_q, split_layer) -> bool:
    allowed = segment_side_signs(frag, vp_p, split_layer)
    for axis in (0, 1):
        delta = vp_q.xy[axis] - vp_p.xy[axis]
        if delta == 0:
            continue
        if (1 if delta > 0 else -1) not in allowed[axis]:
            return False
    return True


def scalar_select(split, sink, n, sources, direction=True):
    np_axis = 1 - split.preferred_axis
    layer = split.split_layer
    best_per_source = {}
    for source in sources:
        for svp in sink.virtual_pins:
            for qvp in source.virtual_pins:
                if direction and not (
                    scalar_prefers(sink, svp, qvp, layer)
                    or scalar_prefers(source, qvp, svp, layer)
                ):
                    continue
                d_np = abs(qvp.xy[np_axis] - svp.xy[np_axis])
                d_p = abs(qvp.xy[1 - np_axis] - svp.xy[1 - np_axis])
                key = (d_np, d_p, qvp.xy[0], qvp.xy[1])
                prev = best_per_source.get(source.fragment_id)
                if prev is None or key < prev[0]:
                    best_per_source[source.fragment_id] = (key, VPP(svp, qvp))
    ranked = sorted(
        best_per_source.items(), key=lambda item: (item[1][0], item[0])
    )
    return [vpp for _sid, (_key, vpp) in ranked[:n]]


def committed_split(monkeypatch, design, layer):
    if not (COMMITTED / f"{design}.def").exists():
        pytest.skip("committed warm cache not present")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(COMMITTED))
    clear_memo()
    try:
        return get_split(design, layer)  # reads the committed DEF
    finally:
        clear_memo()


def _cells():
    names = [s.name for s in TABLE3_SPECS] + [d.name for d in TRAINING_DESIGNS]
    for name in names:
        for layer in (1, 3):
            marks = [pytest.mark.slow] if (name, layer) in SLOW else []
            yield pytest.param(name, layer, marks=marks, id=f"{name}-M{layer}")


@pytest.mark.parametrize("design,layer", list(_cells()))
def test_lists_equal_scalar_oracle(monkeypatch, design, layer):
    split = committed_split(monkeypatch, design, layer)
    n = 15
    sources = split.source_fragments
    got = build_candidates(split, n)
    assert list(got) == [s.fragment_id for s in split.sink_fragments]
    for sink in split.sink_fragments:
        assert got[sink.fragment_id] == scalar_select(split, sink, n, sources), (
            f"{design}/M{layer} sink {sink.fragment_id}"
        )


def test_explicit_sources_and_small_n(monkeypatch):
    """``select_candidates`` runs the same kernel for one sink, against
    any subset of sources, and cuts at any n."""
    split = committed_split(monkeypatch, "c880", 1)
    sources = split.source_fragments[::3]
    for sink in split.sink_fragments[:40]:
        for n in (1, 4, 1000):
            assert select_candidates(split, sink, n, sources) == scalar_select(
                split, sink, n, sources
            )


def test_direction_mask_is_the_only_filter(monkeypatch):
    """With the direction rule switched off, lists equal the oracle's
    without it: nothing but ranking is left to prune."""
    split = committed_split(monkeypatch, "c432", 3)
    monkeypatch.setattr(cand_mod, "direction_mask", lambda *a, **k: True)
    got = build_candidates(split, 15)
    sources = split.source_fragments
    for sink in split.sink_fragments:
        assert got[sink.fragment_id] == scalar_select(
            split, sink, 15, sources, direction=False
        )
