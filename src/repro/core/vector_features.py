"""Vector-based VPP features (paper Sec. 3.1) — 27 values per VPP.

Layout (matching Table 2's 27-wide fc1 input; see DESIGN.md Sec. 6):

====  ========================================================
idx   feature
====  ========================================================
0-2   signed dP, dN, dP+dN (P/N: preferred / non-preferred axis
      of the split layer; source pin minus sink pin)
3-5   |dP|, |dN|, |dP|+|dN|
6-8   signed distances scaled by chip width, height, half-perim
9-11  unsigned distances scaled likewise
12    load capacitance upper bound (driver max load, fF)
13    load capacitance lower bound (sink pins + wire cap, fF)
14    number of sinks in the sink fragment
15-18 source fragment wirelength on M1..M4 (tracks, zero-padded)
19-22 sink fragment wirelength on M1..M4
23    source fragment via count (all FEOL cut layers)
24    sink fragment via count
25    driver delay lower bound (ps, Elmore through the fragment)
26    capacitance slack: upper - lower bound
====  ========================================================

All values are FEOL-derivable, per the threat model: the BEOL is only
seen through the training labels.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..cells.library import Cell
from ..cells.timing import (
    driver_delay_ps,
    load_lower_bound_ff,
    load_upper_bound_ff,
)
from ..split.fragments import Fragment
from ..split.split import VPP, SplitLayout

N_VECTOR_FEATURES = 27


class _FragmentTerms(NamedTuple):
    """The per-fragment inputs of a feature row, derived once per
    fragment (``SplitLayout.memo``) rather than once per pair."""

    wirelengths: list[float]  # tracks on M1..M<max_layers>, zero-padded
    vias: float
    total_wirelength: int
    sink_caps: list[float]  # its sink pins' input caps (a sink fragment)
    internal_caps: list[float]  # its internal sinks' (a source fragment)
    driver_cell: Cell | None


def _terms(
    split: SplitLayout, fragment: Fragment, max_layers: int
) -> _FragmentTerms:
    key = ("vector_terms", fragment.fragment_id, max_layers)
    terms = split.memo.get(key)
    if terms is None:
        wirelengths = [0.0] * max_layers
        for layer, length in fragment.wirelength_by_layer().items():
            if layer <= max_layers:
                wirelengths[layer - 1] = float(length)
        caps = split.design.sink_pin_capacitance
        terms = _FragmentTerms(
            wirelengths=wirelengths,
            vias=float(sum(fragment.vias_by_cut().values())),
            total_wirelength=fragment.total_wirelength,
            sink_caps=[caps(t) for t in fragment.sinks],
            internal_caps=[caps(t) for t in fragment.internal_sinks],
            driver_cell=split.design.driver_cell(fragment.net),
        )
        split.memo[key] = terms
    return terms


def _row(split: SplitLayout, vpp: VPP, max_layers: int) -> list[float]:
    """The 27 features of one VPP, as Python floats."""
    sink = split.fragment(vpp.sink_fragment)
    source = _terms(split, split.fragment(vpp.source_fragment), max_layers)
    sink_terms = _terms(split, sink, max_layers)
    fp = split.design.floorplan

    d_p, d_n = split.vpp_deltas(vpp)
    signed = (float(d_p), float(d_n), float(d_p + d_n))
    unsigned = (abs(signed[0]), abs(signed[1]), abs(signed[0]) + abs(signed[1]))
    width, height, hp = float(fp.width), float(fp.height), float(fp.half_perimeter)

    cap_upper, cap_lower, delay = _electrical(source, sink_terms)
    return [
        *signed,
        *unsigned,
        signed[0] / width, signed[1] / height, signed[2] / hp,
        unsigned[0] / width, unsigned[1] / height, unsigned[2] / hp,
        cap_upper,
        cap_lower,
        float(sink.n_sinks),
        *source.wirelengths,
        *sink_terms.wirelengths,
        source.vias,
        sink_terms.vias,
        delay,
        cap_upper - cap_lower,
    ]


def vpp_vector_features(
    split: SplitLayout,
    vpp: VPP,
    max_layers: int = 4,
) -> np.ndarray:
    """The 27-entry feature vector for one candidate VPP."""
    return np.array(_row(split, vpp, max_layers), dtype=np.float64)


def _electrical(
    source: _FragmentTerms, sink: _FragmentTerms
) -> tuple[float, float, float]:
    """(cap upper bound, cap lower bound, driver delay lower bound)."""
    driver_cell = source.driver_cell
    lower = load_lower_bound_ff(
        sink.sink_caps + source.internal_caps,
        source.total_wirelength,
        sink.total_wirelength,
    )
    if driver_cell is None:  # primary input pad: use library-independent caps
        upper = max(lower, 120.0)
        delay = 0.0
    else:
        upper = load_upper_bound_ff(driver_cell)
        delay = driver_delay_ps(
            driver_cell, lower, wirelength_tracks=source.total_wirelength
        )
    return upper, lower, delay


def group_vector_features(
    split: SplitLayout,
    vpps: list[VPP],
    n: int,
    max_layers: int = 4,
) -> tuple[np.ndarray, np.ndarray]:
    """Feature matrix (n, 27) and validity mask (n,) for one group,
    right-padded with zeros to exactly ``n`` rows."""
    features = np.zeros((n, N_VECTOR_FEATURES), dtype=np.float32)
    mask = np.zeros(n, dtype=bool)
    rows = [_row(split, vpp, max_layers) for vpp in vpps[:n]]
    if rows:
        # float64 rows, then one float32 cast: the same rounding as
        # casting each vpp_vector_features row.
        features[: len(rows)] = np.array(rows, dtype=np.float64)
        mask[: len(rows)] = True
    return features, mask


class FeatureNormalizer:
    """Per-feature standardisation fitted on the training corpus.

    The paper mitigates scaling with ratio features; on top of that,
    standardisation keeps the NumPy training numerically stable across
    designs of very different die sizes.
    """

    def __init__(self):
        self.mean: np.ndarray | None = None
        self.std: np.ndarray | None = None

    def fit(self, rows: np.ndarray) -> "FeatureNormalizer":
        if rows.ndim != 2 or rows.shape[0] == 0:
            raise ValueError("need a non-empty (rows, features) matrix")
        self.mean = rows.mean(axis=0)
        std = rows.std(axis=0)
        self.std = np.where(std < 1e-9, 1.0, std)
        return self

    @property
    def fitted(self) -> bool:
        return self.mean is not None

    def transform(self, features: np.ndarray) -> np.ndarray:
        if not self.fitted:
            raise RuntimeError("normalizer not fitted")
        return ((features - self.mean) / self.std).astype(np.float32)

    def state(self) -> dict[str, np.ndarray]:
        if not self.fitted:
            raise RuntimeError("normalizer not fitted")
        return {"mean": self.mean, "std": self.std}

    @classmethod
    def from_state(cls, state: dict[str, np.ndarray]) -> "FeatureNormalizer":
        norm = cls()
        norm.mean = np.asarray(state["mean"], dtype=np.float64)
        norm.std = np.asarray(state["std"], dtype=np.float64)
        return norm
