"""SplitNet architecture and gradient flow."""

import numpy as np
import pytest

from repro.core import AttackConfig, N_VECTOR_FEATURES, SplitNet
from repro.nn import softmax_regression_loss

from identity_gather import stacked_forward


def tiny_inputs(cfg, split_layer, batch=2, seed=0):
    rng = np.random.default_rng(seed)
    n = cfg.n_candidates
    c = cfg.image_channels(split_layer)
    s = cfg.image_size
    vec = rng.standard_normal((batch, n, N_VECTOR_FEATURES)).astype(np.float32)
    src = (rng.random((batch, n, c, s, s)) < 0.2).astype(np.float32)
    sink = (rng.random((batch, c, s, s)) < 0.2).astype(np.float32)
    return vec, src, sink


class TestForwardShapes:
    def test_softmax_scores_shape(self):
        cfg = AttackConfig.tiny()
        net = SplitNet(cfg, split_layer=3)
        vec, src, sink = tiny_inputs(cfg, 3)
        scores = stacked_forward(net, vec, src, sink)
        assert scores.shape == (2, cfg.n_candidates)

    def test_two_class_scores_shape(self):
        cfg = AttackConfig.tiny().with_(loss="two_class")
        net = SplitNet(cfg, split_layer=3)
        vec, src, sink = tiny_inputs(cfg, 3)
        scores = stacked_forward(net, vec, src, sink)
        assert scores.shape == (2, cfg.n_candidates, 2)

    def test_vec_only_mode(self):
        cfg = AttackConfig.tiny().with_(use_images=False)
        net = SplitNet(cfg, split_layer=3)
        vec, _src, _sink = tiny_inputs(cfg, 3)
        scores = net(vec)
        assert scores.shape == (2, cfg.n_candidates)

    def test_images_required_when_configured(self):
        cfg = AttackConfig.tiny()
        net = SplitNet(cfg, split_layer=3)
        vec, _src, _sink = tiny_inputs(cfg, 3)
        with pytest.raises(ValueError, match="images"):
            net(vec)

    def test_m1_has_fewer_channels_than_m3(self):
        cfg = AttackConfig.tiny()
        assert cfg.image_channels(1) == 2 * 1 * len(cfg.image_scales)
        assert cfg.image_channels(3) == 2 * 3 * len(cfg.image_scales)
        net1 = SplitNet(cfg, split_layer=1)
        net3 = SplitNet(cfg, split_layer=3)
        assert net1.num_parameters() < net3.num_parameters()


class TestTable2PaperScale:
    def test_conv_progression_99_33_11_4(self):
        """Table 2's spatial sizes at paper scale, via one real forward."""
        from repro.nn import Conv2D, GlobalAvgPool

        cfg = AttackConfig.paper()
        net = SplitNet(cfg, split_layer=3)
        x = np.zeros(
            (1, cfg.image_channels(3), 99, 99), dtype=np.float32
        )
        sizes = [x.shape[2]]
        for layer in net.tower.modules:
            x = layer(x)
            if isinstance(layer, Conv2D) and layer.stride == 3:
                sizes.append(x.shape[2])
            if isinstance(layer, GlobalAvgPool):
                break
        assert sizes == [99, 33, 11, 4]

    def test_paper_fc_shapes(self):
        cfg = AttackConfig.paper()
        net = SplitNet(cfg, split_layer=3)
        fc1 = net.vector_branch[0]
        assert fc1.weight.shape == (27, 128)  # Table 2 fc1
        # image head: fc3 128x256, fc4 256x128
        dense = [m for m in net.tower.modules if hasattr(m, "weight")
                 and m.weight.value.ndim == 2]
        assert dense[-2].weight.shape == (128, 256)
        assert dense[-1].weight.shape == (256, 128)
        # fc5 combines sink+source embeddings: 256x128
        assert net.image_combine[0].weight.shape == (256, 128)
        # trunk: fc5m 256x128 ... fc6 128x32, fc7 32x1
        assert net.trunk[0].weight.shape == (256, 128)
        assert net.trunk[-3].weight.shape == (128, 32)
        assert net.trunk[-1].weight.shape == (32, 1)

    def test_paper_residual_block_counts(self):
        cfg = AttackConfig.paper()
        net = SplitNet(cfg, split_layer=3)
        from repro.nn import ResidualBlock

        vec_res = [m for m in net.vector_branch.modules
                   if isinstance(m, ResidualBlock)]
        trunk_res = [m for m in net.trunk.modules
                     if isinstance(m, ResidualBlock)]
        assert len(vec_res) == 4  # Fig. 4: four res blocks, vector part
        assert len(trunk_res) == 3  # three res blocks after the merge


class TestGradients:
    def test_all_parameters_receive_gradient(self):
        cfg = AttackConfig.tiny()
        net = SplitNet(cfg, split_layer=1)
        vec, src, sink = tiny_inputs(cfg, 1, seed=3)
        scores = stacked_forward(net, vec, src, sink)
        _, grad = softmax_regression_loss(scores, np.array([0, 1]))
        net.zero_grad()
        net.backward_deduplicated(grad)
        with_grad = sum(
            1 for p in net.parameters() if np.abs(p.grad).max() > 0
        )
        assert with_grad / len(net.parameters()) > 0.95

    def test_training_step_changes_scores(self):
        from repro.nn import Adam

        cfg = AttackConfig.tiny()
        net = SplitNet(cfg, split_layer=1)
        vec, src, sink = tiny_inputs(cfg, 1, seed=4)
        targets = np.array([2, 3])
        opt = Adam(net.parameters(), lr=1e-2)
        first = stacked_forward(net, vec, src, sink)
        loss0, grad = softmax_regression_loss(first, targets)
        net.backward_deduplicated(grad)
        opt.step()
        for _ in range(10):
            opt.zero_grad()
            scores = stacked_forward(net, vec, src, sink)
            loss, grad = softmax_regression_loss(scores, targets)
            net.backward_deduplicated(grad)
            opt.step()
        assert loss < loss0

    def test_sink_gradient_is_sum_over_broadcast(self):
        """The shared sink image must aggregate gradient from all n
        candidates — spot-check by comparing to a loop-free run where
        only one candidate has gradient."""
        cfg = AttackConfig.tiny()
        net = SplitNet(cfg, split_layer=1)
        vec, src, sink = tiny_inputs(cfg, 1, seed=5)
        scores = stacked_forward(net, vec, src, sink)
        grad = np.zeros_like(scores)
        grad[0, 0] = 1.0
        net.zero_grad()
        net.backward_deduplicated(grad)
        tower_grads_one = [p.grad.copy() for p in net.tower.parameters()]
        assert any(np.abs(g).max() > 0 for g in tower_grads_one)


class TestPersistence:
    def test_save_load_preserves_outputs(self, tmp_path):
        cfg = AttackConfig.tiny()
        net = SplitNet(cfg, split_layer=3)
        vec, src, sink = tiny_inputs(cfg, 3, seed=6)
        expected = stacked_forward(net, vec, src, sink)
        path = tmp_path / "net.npz"
        net.save(path)
        other = SplitNet(cfg.with_(seed=99), split_layer=3)
        other.load(path)
        np.testing.assert_allclose(
            stacked_forward(other, vec, src, sink), expected, rtol=1e-5
        )

    def test_layer_summary_mentions_table2(self):
        net = SplitNet(AttackConfig.paper(), split_layer=3)
        text = "\n".join(net.layer_summary())
        assert "fc1 27x128" in text
        assert "16/32/64/128" in text
