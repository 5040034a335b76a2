"""Image-based features (paper Sec. 3.2, Fig. 2).

For every virtual pin, the local routed layout is rendered as a stack
of binary layer-bit planes at three scales:

* the window is ``image_size`` pixels square, centred on the pin; at
  scale ``s`` each pixel represents an s x s-track region (the paper's
  0.05/0.1/0.2 um pixel footprints form the same 1:2:4 ladder);
* with m = split layer, each pixel carries 2m layer bits: the more
  significant m bits mark wiring of *the pin's own fragment* per layer,
  the less significant m bits mark wiring of *all other fragments*.
  Higher metal layers sit in more significant bits ("wires closer to
  the BEOL carry more information"), which here maps to channel order;
* vias mark both layers they connect (they are nodes on both).

Rendered as a float-ready uint8 tensor of shape
``(n_scales * 2m, image_size, image_size)``.

Rendering is **die-clipped**: each fragment's FEOL nodes are indexed
sparsely once, and the track-level bit planes are materialised only
where the widest crop overlaps the die (plus a zero margin of one
coarse pixel) -- as bool planes, own = the fragment's nodes, other =
``occupancy > own`` (the same bits as ``clip(occupancy - own) > 0``).
Each scale pools just its die-overlapping pixels from them with
``reshape(...).any(...)``; every other pixel is zero.  So the per-pin
cost is O(min(window, die) + fragment nodes): the 33 px x 4 = 132-track
window is wider than every committed die, and on a die wider than the
window only the window is touched.  The dense full-die renderer is kept as
``render_reference``; ``tests/core/test_image_parity.py`` asserts the
two are bit-identical, die edges and corners included.
"""

from __future__ import annotations

import numpy as np

from ..split.fragments import Fragment, VirtualPin
from ..split.split import SplitLayout
from .config import AttackConfig


class ImageExtractor:
    """Renders and caches per-virtual-pin layout images for one layout."""

    def __init__(self, split: SplitLayout, config: AttackConfig):
        self.split = split
        self.config = config
        self.m = split.split_layer
        # occupancy[l-1, x, y] = number of nets with wiring at (l, x, y)
        self.occupancy = split.occupancy_grids()
        # Zero margin of one pixel at the coarsest scale: a crop's edge
        # pixels may overhang the die by up to scale - 1 tracks.
        self._pad = max(config.image_scales)
        pad = self._pad
        self._occupancy_padded = np.pad(
            self.occupancy, ((0, 0), (pad, pad), (pad, pad))
        )
        self._cache: dict[tuple[int, int, int], np.ndarray] = {}
        # fragment_id -> (layer-1, x, y) arrays of FEOL nodes, built once
        self._frag_nodes: dict[
            int, tuple[np.ndarray, np.ndarray, np.ndarray]
        ] = {}

    @property
    def n_channels(self) -> int:
        return self.config.image_channels(self.m)

    def image(self, fragment: Fragment, vp: VirtualPin) -> np.ndarray:
        """(C, S, S) uint8 image stack for one virtual pin."""
        key = (fragment.fragment_id, vp.x, vp.y)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        img = self._render(fragment, vp)
        self._cache[key] = img
        return img

    def _render(self, fragment: Fragment, vp: VirtualPin) -> np.ndarray:
        size = self.config.image_size
        scales = self.config.image_scales
        m = self.m
        width, height = self.occupancy.shape[1:]
        pad = self._pad
        # Track region covering every scale's die-overlapping pixels:
        # the widest crop, clipped to the zero-padded die.
        reach = size * max(scales)
        rx0 = max(-pad, vp.x - reach // 2)
        ry0 = max(-pad, vp.y - reach // 2)
        rx1 = min(width + pad, vp.x - reach // 2 + reach)
        ry1 = min(height + pad, vp.y - reach // 2 + reach)
        layers, xs, ys = self._fragment_index(fragment)
        occ = self._occupancy_padded[
            :, rx0 + pad : rx1 + pad, ry0 + pad : ry1 + pad
        ]
        own = np.zeros(occ.shape, dtype=bool)
        inside = (xs >= rx0) & (xs < rx1) & (ys >= ry0) & (ys < ry1)
        own[layers[inside], xs[inside] - rx0, ys[inside] - ry0] = True
        # Own bits then other bits, each highest layer first (most
        # significant), hence the reversal of the layer axis.
        planes = np.concatenate((own[::-1], (occ > own)[::-1]))

        image = np.zeros((len(scales) * 2 * m, size, size), dtype=np.uint8)
        for k, scale in enumerate(scales):
            x0 = vp.x - size * scale // 2  # track of pixel (0, 0)
            y0 = vp.y - size * scale // 2
            # Pixels [p0, p1) x [q0, q1) overlap the die; their tracks
            # overhang it by less than one pixel, into the zero padding.
            p0, p1 = max(0, -x0 // scale), min(size, -((x0 - width) // scale))
            q0, q1 = max(0, -y0 // scale), min(size, -((y0 - height) // scale))
            if p0 >= p1 or q0 >= q1:
                continue
            crop = planes[
                :,
                x0 + p0 * scale - rx0 : x0 + p1 * scale - rx0,
                y0 + q0 * scale - ry0 : y0 + q1 * scale - ry0,
            ]
            if scale > 1:
                crop = crop.reshape(
                    2 * m, p1 - p0, scale, q1 - q0, scale
                ).any(axis=(2, 4))
            image[2 * m * k : 2 * m * (k + 1), p0:p1, q0:q1] = crop
        return image

    def _fragment_index(
        self, fragment: Fragment
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sparse (layer-1, x, y) arrays of the fragment's FEOL nodes."""
        idx = self._frag_nodes.get(fragment.fragment_id)
        if idx is None:
            nodes = [
                (layer - 1, x, y)
                for layer, x, y in fragment.nodes
                if layer <= self.m
            ]
            if nodes:
                arr = np.asarray(nodes, dtype=np.intp)
                idx = (arr[:, 0], arr[:, 1], arr[:, 2])
            else:
                empty = np.zeros(0, dtype=np.intp)
                idx = (empty, empty, empty)
            self._frag_nodes[fragment.fragment_id] = idx
        return idx

    # -- reference renderer -----------------------------------------------
    def render_reference(self, fragment: Fragment, vp: VirtualPin) -> np.ndarray:
        """The original dense full-die renderer, kept as the ground truth
        for the die-clipped ``_render`` (see the parity tests)."""
        size = self.config.image_size
        own = self._own_grid(fragment)
        other = (self.occupancy - own).clip(min=0)

        planes: list[np.ndarray] = []
        for scale in self.config.image_scales:
            tracks = size * scale
            for layer in range(self.m, 0, -1):
                window = _window(own[layer - 1], vp.x, vp.y, tracks)
                planes.append(_pool_max(window, scale))
            for layer in range(self.m, 0, -1):
                window = _window(other[layer - 1], vp.x, vp.y, tracks)
                planes.append(_pool_max(window, scale))
        return np.stack(planes).astype(np.uint8)

    def _own_grid(self, fragment: Fragment) -> np.ndarray:
        """(m, W, H) int16 marking the fragment's own FEOL wiring."""
        fp = self.split.design.floorplan
        own = np.zeros((self.m, fp.width, fp.height), dtype=np.int16)
        for layer, x, y in fragment.nodes:
            if layer <= self.m:
                own[layer - 1, x, y] = 1
        return own

    def cache_stats(self) -> dict[str, int]:
        return {
            "images": len(self._cache),
            "bytes": sum(v.nbytes for v in self._cache.values()),
        }


def _window(grid: np.ndarray, cx: int, cy: int, tracks: int) -> np.ndarray:
    """Extract a ``tracks x tracks`` window centred at (cx, cy), padded
    with zeros outside the die."""
    half = tracks // 2
    x0, y0 = cx - half, cy - half
    out = np.zeros((tracks, tracks), dtype=grid.dtype)
    gx0, gy0 = max(0, x0), max(0, y0)
    gx1 = min(grid.shape[0], x0 + tracks)
    gy1 = min(grid.shape[1], y0 + tracks)
    if gx1 > gx0 and gy1 > gy0:
        out[gx0 - x0 : gx1 - x0, gy0 - y0 : gy1 - y0] = grid[gx0:gx1, gy0:gy1]
    return out


def _pool_max(window: np.ndarray, scale: int) -> np.ndarray:
    """Max-pool an (S*s, S*s) window to (S, S): a region's bit is set if
    any of its tracks holds wiring."""
    if scale == 1:
        return (window > 0).astype(np.uint8)
    size = window.shape[0] // scale
    pooled = window.reshape(size, scale, size, scale).max(axis=(1, 3))
    return (pooled > 0).astype(np.uint8)
