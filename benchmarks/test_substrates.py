"""Micro-benchmarks of the EDA and neural-network substrates.

Not a paper table — throughput accounting for the pieces every
experiment runs through: generation, placement, routing, splitting,
candidate selection, feature extraction, network passes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    AttackConfig,
    ImageExtractor,
    N_VECTOR_FEATURES,
    SplitNet,
    build_candidates,
    vpp_vector_features,
)
from repro.layout import Router, build_layout, make_floorplan, place
from repro.netlist import RandomLogicGenerator, build_benchmark
from repro.nn import softmax_regression_loss
from repro.split import split_design

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def netlist():
    return build_benchmark("c880")


@pytest.fixture(scope="module")
def layout(netlist):
    return build_layout(netlist)


@pytest.fixture(scope="module")
def split_m3(layout):
    return split_design(layout, 3)


def test_netlist_generation(benchmark):
    gen = RandomLogicGenerator()
    netlist = benchmark(lambda: gen.generate("bench", 200, seed=1))
    assert netlist.n_gates == 200


def test_placement(benchmark, netlist):
    fp = make_floorplan(netlist)
    placement = benchmark(lambda: place(netlist, fp))
    assert len(placement.locations) == netlist.n_gates


def test_routing(benchmark, netlist):
    fp = make_floorplan(netlist)
    placement = place(netlist, fp)

    def route():
        return Router(fp).route_netlist(netlist, placement)

    routes = benchmark(route)
    assert len(routes) == len(netlist.signal_nets())


def test_split_extraction(benchmark, layout):
    split = benchmark(lambda: split_design(layout, 3))
    assert split.sink_fragments


def test_candidate_selection(benchmark, split_m3):
    candidates = benchmark(lambda: build_candidates(split_m3, 15))
    assert candidates


def test_vector_feature_extraction(benchmark, split_m3):
    candidates = build_candidates(split_m3, 15)
    vpps = [v for vl in candidates.values() for v in vl]

    def extract():
        return [vpp_vector_features(split_m3, v) for v in vpps]

    rows = benchmark(extract)
    assert len(rows) == len(vpps)


def test_image_extraction(benchmark, split_m3):
    config = AttackConfig.fast()
    frag = split_m3.sink_fragments[0]

    def extract():
        extractor = ImageExtractor(split_m3, config)  # cold cache each round
        return extractor.image(frag, frag.virtual_pins[0])

    image = benchmark(extract)
    assert image.shape[0] == config.image_channels(3)


@pytest.fixture(scope="module")
def net_and_batch():
    """Four groups over a unique-image table, duplicated as candidate
    groups share source images."""
    config = AttackConfig.fast()
    net = SplitNet(config, split_layer=3)
    rng = np.random.default_rng(0)
    n = config.n_candidates
    c = config.image_channels(3)
    s = config.image_size
    vec = rng.standard_normal((4, n, N_VECTOR_FEATURES)).astype(np.float32)
    images = (rng.random((2 * n, c, s, s)) < 0.15).astype(np.float32)
    src_gather = rng.integers(0, 2 * n, size=(4, n)).astype(np.intp)
    sink_gather = np.arange(4, dtype=np.intp)
    return net, vec, images, src_gather, sink_gather


def test_splitnet_forward(benchmark, net_and_batch):
    net, vec, images, src_gather, sink_gather = net_and_batch

    def score():
        emb = net.embed_images(images)
        return net.forward_from_embeddings(
            vec, emb[src_gather], emb[sink_gather]
        )

    scores = benchmark(score)
    assert scores.shape == (4, net.config.n_candidates)


def test_splitnet_training_step(benchmark, net_and_batch):
    net, vec, images, src_gather, sink_gather = net_and_batch
    targets = np.array([0, 1, 2, 3])

    def step():
        net.zero_grad()
        scores = net.forward_deduplicated(vec, images, src_gather, sink_gather)
        loss, grad = softmax_regression_loss(scores, targets)
        net.backward_deduplicated(grad)
        return loss

    loss = benchmark(step)
    assert np.isfinite(loss)
