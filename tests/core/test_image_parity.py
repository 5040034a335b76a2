"""Engine parity: the window-local renderer must be bit-identical to
the dense reference renderer, including window clipping at the die
edge, across scale ladders."""

import numpy as np
import pytest

from repro.core import AttackConfig, ImageExtractor
from repro.layout import build_layout
from repro.netlist import RandomLogicGenerator
from repro.split import VirtualPin, split_design


@pytest.fixture(scope="module")
def layouts():
    gen = RandomLogicGenerator()
    designs = [
        build_layout(gen.generate("parity_a", 90, seed=7)),
        build_layout(gen.generate("parity_b", 60, seed=13)),
    ]
    return designs


SCALE_LADDERS = [(1,), (1, 2), (1, 2, 4), (4, 2, 1)]


@pytest.mark.parametrize("scales", SCALE_LADDERS, ids=str)
@pytest.mark.parametrize("split_layer", [1, 3])
def test_every_pin_bit_identical(layouts, split_layer, scales):
    config = AttackConfig.tiny().with_(image_scales=scales)
    for design in layouts:
        split = split_design(design, split_layer)
        extractor = ImageExtractor(split, config)
        n_checked = 0
        for frag in split.fragments:
            for vp in frag.virtual_pins:
                fast = extractor._render(frag, vp)
                ref = extractor.render_reference(frag, vp)
                assert fast.dtype == ref.dtype == np.uint8
                assert np.array_equal(fast, ref), (
                    f"mismatch at fragment {frag.fragment_id} pin "
                    f"({vp.x},{vp.y}) scales={scales} M{split_layer}"
                )
                n_checked += 1
        assert n_checked > 0


def test_edge_of_die_pins_bit_identical(layouts):
    """Pins whose window overhangs the die exercise the clipping path;
    the 33 * 4-track window always overhangs our tiny test dies, and we
    additionally pick the pins closest to each die corner."""
    config = AttackConfig.tiny().with_(image_scales=(1, 2, 4), image_size=33)
    design = layouts[0]
    split = split_design(design, 3)
    extractor = ImageExtractor(split, config)
    pins = [
        (frag, vp) for frag in split.fragments for vp in frag.virtual_pins
    ]
    assert pins
    fp = split.design.floorplan
    corners = [(0, 0), (0, fp.height), (fp.width, 0), (fp.width, fp.height)]
    for cx, cy in corners:
        frag, vp = min(
            pins, key=lambda p: abs(p[1].x - cx) + abs(p[1].y - cy)
        )
        fast = extractor._render(frag, vp)
        ref = extractor.render_reference(frag, vp)
        assert np.array_equal(fast, ref)


def test_cached_image_comes_from_fast_path(layouts):
    split = split_design(layouts[0], 3)
    extractor = ImageExtractor(split, AttackConfig.tiny())
    frag = split.sink_fragments[0]
    vp = frag.virtual_pins[0]
    img = extractor.image(frag, vp)
    assert np.array_equal(img, extractor.render_reference(frag, vp))
    assert extractor.image(frag, vp) is img


def corner_pins(split):
    """Synthetic virtual pins on the four die corners, one per fragment
    the renderer is asked about (the pin need not be the fragment's)."""
    fp = split.design.floorplan
    frag = split.sink_fragments[0]
    return [
        (frag, VirtualPin(frag.fragment_id, x, y))
        for x in (0, fp.width - 1)
        for y in (0, fp.height - 1)
    ]


def test_die_corner_pins_bit_identical(layouts):
    """A pin on a die corner: three quarters of every crop lie off-die."""
    config = AttackConfig.tiny().with_(image_scales=(1, 2, 4), image_size=33)
    for split_layer in (1, 3):
        split = split_design(layouts[0], split_layer)
        extractor = ImageExtractor(split, config)
        for frag, vp in corner_pins(split):
            assert np.array_equal(
                extractor._render(frag, vp), extractor.render_reference(frag, vp)
            ), f"corner ({vp.x},{vp.y}) M{split_layer}"


@pytest.mark.parametrize(
    "size,scales",
    [
        # dies wider than the scale-1 and scale-2 crops (9, 18 tracks)
        # but narrower than the 36-track window
        (9, (1, 2, 4)),
        # dies (19-23 tracks) wider than the whole 10- or 14-track
        # window: only the window is rendered
        (5, (1, 2)),
        (7, (2, 1)),
    ],
    ids=str,
)
def test_crops_narrower_than_die_bit_identical(layouts, size, scales):
    config = AttackConfig.tiny().with_(image_scales=scales, image_size=size)
    for design in layouts:
        split = split_design(design, 3)
        fp = split.design.floorplan
        assert size * min(scales) < min(fp.width, fp.height)
        extractor = ImageExtractor(split, config)
        pins = [(f, vp) for f in split.fragments for vp in f.virtual_pins]
        for frag, vp in pins + corner_pins(split):
            assert np.array_equal(
                extractor._render(frag, vp), extractor.render_reference(frag, vp)
            ), f"pin ({vp.x},{vp.y}) size={size} scales={scales}"
