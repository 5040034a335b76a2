"""Unique-image deduplicated *training* vs the materialised reference.

The dedup path (``make_batch(dedup_images=True)`` +
``SplitNet.forward_deduplicated``/``backward_deduplicated``) is
mathematically identical to the reference path: gathering shared
embedding rows forward and scatter-adding their gradients backward is
the transpose pair of the duplicate-stacking it replaces.

What is asserted at which strength:

* **bitwise** where the arrays are structurally the same — batch
  reconstruction (``image_batch[src_gather]`` vs the materialised
  stacks) and the ``np.add.at`` scatter vs an explicit per-slot loop;
* **float64 gradcheck** for the mathematical identity of the full
  gather/scatter backward, with deliberately duplicated gather rows;
* **calibrated allclose** for cross-path loss curves and final
  weights: the two paths issue different-shaped tower gemms (U unique
  vs B*n+B duplicated rows), and BLAS kernel dispatch varies with the
  matrix shape, so per-step results agree only to within float32 ulps
  (measured ~1e-7 relative) which Adam then amplifies over epochs
  (measured <=6e-4 absolute on weights after 3 tiny epochs; asserted
  with ~10x margin).
"""

import numpy as np
import pytest

from repro.core import AttackConfig, DLAttack
from repro.core import attack as attack_mod
from repro.core.attack import _concat_batches
from repro.core.dataset import Batch, SplitDataset, make_batch
from repro.core.model import SplitNet
from repro.layout import build_layout
from repro.netlist import RandomLogicGenerator
from repro.nn import (
    check_callable_gradients,
    softmax_regression_loss,
    two_class_loss,
)
from repro.split import split_design


@pytest.fixture(scope="module")
def split():
    nl = RandomLogicGenerator().generate("dedup", 70, seed=101)
    return split_design(build_layout(nl), 3)


@pytest.fixture(scope="module")
def dataset(split):
    return SplitDataset(split, AttackConfig.tiny(), use_disk_cache=False)


def _fitted(cfg, dataset):
    attack = DLAttack(cfg, split_layer=3)
    attack.normalizer.fit(dataset.all_vector_rows())
    return attack


class TestBatchAssembly:
    def test_dedup_batch_reconstructs_bitwise(self, dataset):
        groups = [g for g in dataset.groups if g.target is not None][:6]
        ref = make_batch(dataset, groups, _fitted(
            AttackConfig.tiny(), dataset).normalizer, True)
        ded = make_batch(dataset, groups, _fitted(
            AttackConfig.tiny(), dataset).normalizer, True,
            dedup_images=True)
        assert ded.src_images is None and ded.image_batch is not None
        np.testing.assert_array_equal(
            ded.image_batch[ded.src_gather], ref.src_images
        )
        np.testing.assert_array_equal(
            ded.image_batch[ded.sink_gather], ref.sink_images
        )
        np.testing.assert_array_equal(ded.vec, ref.vec)
        np.testing.assert_array_equal(ded.targets, ref.targets)

    def test_dedup_batch_is_smaller(self, dataset):
        """The point of the exercise: far fewer tower images."""
        groups = [g for g in dataset.groups if g.target is not None]
        norm = _fitted(AttackConfig.tiny(), dataset).normalizer
        ref = make_batch(dataset, groups, norm, True)
        ded = make_batch(dataset, groups, norm, True, dedup_images=True)
        slots = ref.src_images.shape[0] * ref.src_images.shape[1] + \
            ref.sink_images.shape[0]
        assert ded.image_batch.shape[0] < slots / 2

    def test_unique_rows_and_index_dtypes(self, dataset):
        groups = [g for g in dataset.groups if g.target is not None][:6]
        norm = _fitted(AttackConfig.tiny(), dataset).normalizer
        ded = make_batch(dataset, groups, norm, True, dedup_images=True)
        flat = ded.image_batch.reshape(ded.image_batch.shape[0], -1)
        assert len(np.unique(flat, axis=0)) == flat.shape[0]
        assert ded.src_gather.dtype == np.intp
        assert ded.sink_gather.dtype == np.intp

    def test_concat_batches_offsets_gather_indices(self, dataset):
        groups = [g for g in dataset.groups if g.target is not None][:8]
        norm = _fitted(AttackConfig.tiny(), dataset).normalizer
        b1 = make_batch(dataset, groups[:4], norm, True, dedup_images=True)
        b2 = make_batch(dataset, groups[4:], norm, True, dedup_images=True)
        merged = _concat_batches([b1, b2])
        ref = make_batch(dataset, groups, norm, True)
        np.testing.assert_array_equal(
            merged.image_batch[merged.src_gather], ref.src_images
        )
        np.testing.assert_array_equal(
            merged.image_batch[merged.sink_gather], ref.sink_images
        )


class TestScatterSemantics:
    def test_add_at_matches_explicit_loop(self):
        rng = np.random.default_rng(0)
        src_gather = rng.integers(0, 5, size=(4, 3))
        sink_gather = rng.integers(0, 5, size=4)
        grad_src = rng.standard_normal((4, 3, 8)).astype(np.float32)
        grad_sink = rng.standard_normal((4, 8)).astype(np.float32)

        fast = np.zeros((5, 8), dtype=np.float32)
        np.add.at(fast, src_gather.reshape(-1), grad_src.reshape(-1, 8))
        np.add.at(fast, sink_gather, grad_sink)

        slow = np.zeros((5, 8), dtype=np.float32)
        for b in range(4):
            for i in range(3):
                slow[src_gather[b, i]] += grad_src[b, i]
        for b in range(4):
            slow[sink_gather[b]] += grad_sink[b]
        np.testing.assert_array_equal(fast, slow)


class TestGradcheck:
    def test_backward_to_embeddings_with_duplicated_gathers(self):
        """float64 finite-difference check through the full dedup
        backward — gather rows deliberately repeat so the scatter-add
        really sums gradients of shared unique images."""
        cfg = AttackConfig(
            n_candidates=2, image_size=5, image_scales=(1,),
            conv_channels=(3,), convs_per_stage=1, fc_width=8,
            image_head_width=4, vector_res_blocks=1, merged_res_blocks=1,
        )
        net = SplitNet(cfg, split_layer=1)
        for p in net.parameters():
            p.value = p.value.astype(np.float64)
            p.grad = np.zeros_like(p.value)
        rng = np.random.default_rng(11)
        vec = rng.standard_normal((2, 2, 27))
        images = rng.standard_normal((3, 2, 5, 5))
        src_gather = np.array([[0, 1], [1, 2]], dtype=np.intp)
        sink_gather = np.array([2, 0], dtype=np.intp)  # reused as srcs too
        width = cfg.fc_width

        def forward():
            return net.forward_deduplicated(
                vec, images, src_gather, sink_gather
            )

        def backward(weights):
            forward()
            grad_src, grad_sink = net.backward_to_embeddings(weights)
            grad_emb = np.zeros((images.shape[0], width), dtype=np.float64)
            np.add.at(
                grad_emb, src_gather.reshape(-1),
                grad_src.reshape(-1, width),
            )
            np.add.at(grad_emb, sink_gather, grad_sink)
            return {"images": net.tower.backward(grad_emb)}

        check_callable_gradients(
            forward, backward, {"images": images},
            parameters=list(net.parameters()),
        )


class TestTrainingParity:
    @pytest.mark.parametrize("loss", ["softmax", "two_class"])
    def test_single_step_gradients_match(self, loss, dataset):
        loss_fn = (
            softmax_regression_loss if loss == "softmax" else two_class_loss
        )
        grads = {}
        for dedup in (True, False):
            cfg = AttackConfig.tiny().with_(loss=loss)
            attack = _fitted(cfg, dataset)
            attack.model.train()
            groups = [g for g in dataset.groups if g.target is not None][:6]
            batch = make_batch(
                dataset, groups, attack.normalizer, True, dedup_images=dedup
            )
            if dedup:
                scores = attack.model.forward_deduplicated(
                    batch.vec, batch.image_batch,
                    batch.src_gather, batch.sink_gather,
                )
            else:
                scores = attack.model(
                    batch.vec, batch.src_images, batch.sink_images
                )
            _, grad = loss_fn(scores, batch.targets, batch.mask)
            for p in attack.model.parameters():
                p.grad[...] = 0.0
            if dedup:
                attack.model.backward_deduplicated(grad)
            else:
                attack.model.backward(grad)
            grads[dedup] = {
                p.name: p.grad.copy() for p in attack.model.parameters()
            }
        for name in grads[True]:
            np.testing.assert_allclose(
                grads[True][name], grads[False][name],
                rtol=1e-4, atol=1e-5, err_msg=name,
            )

    @pytest.mark.parametrize("loss", ["softmax", "two_class"])
    def test_loss_curves_and_final_weights(self, loss, split, monkeypatch):
        runs = {}
        cfg = AttackConfig.tiny().with_(loss=loss, epochs=3)
        for dedup in (True, False):
            if not dedup:
                # The materialised path (the one vector-only configs
                # train on), forced for an image config.
                monkeypatch.setattr(
                    attack_mod,
                    "make_batch",
                    lambda *args, **kw: make_batch(
                        *args, **{**kw, "dedup_images": False}
                    ),
                )
            attack = DLAttack(cfg, split_layer=3)
            log = attack.train([split])
            runs[dedup] = (np.array(log.losses), attack.model.state_dict())
        losses_d, state_d = runs[True]
        losses_r, state_r = runs[False]
        np.testing.assert_allclose(losses_d, losses_r, rtol=1e-4, atol=1e-4)
        assert sorted(state_d) == sorted(state_r)
        for key in state_d:
            np.testing.assert_allclose(
                state_d[key], state_r[key], rtol=0, atol=5e-3, err_msg=key
            )


class TestModeGuards:
    def _net(self):
        cfg = AttackConfig(
            n_candidates=2, image_size=5, image_scales=(1,),
            conv_channels=(3,), convs_per_stage=1, fc_width=8,
            image_head_width=4, vector_res_blocks=1, merged_res_blocks=1,
        )
        return cfg, SplitNet(cfg, split_layer=1)

    def test_plain_backward_rejects_dedup_forward(self):
        _, net = self._net()
        rng = np.random.default_rng(0)
        vec = rng.standard_normal((2, 2, 27)).astype(np.float32)
        images = rng.standard_normal((3, 2, 5, 5)).astype(np.float32)
        scores = net.forward_deduplicated(
            vec, images,
            np.array([[0, 1], [1, 2]], dtype=np.intp),
            np.array([2, 0], dtype=np.intp),
        )
        with pytest.raises(RuntimeError, match="embeddings"):
            net.backward(np.ones_like(scores))

    def test_dedup_backward_rejects_plain_forward(self):
        _, net = self._net()
        rng = np.random.default_rng(0)
        vec = rng.standard_normal((2, 2, 27)).astype(np.float32)
        src = rng.standard_normal((2, 2, 2, 5, 5)).astype(np.float32)
        sink = rng.standard_normal((2, 2, 5, 5)).astype(np.float32)
        scores = net(vec, src, sink)
        with pytest.raises(RuntimeError, match="forward_deduplicated"):
            net.backward_deduplicated(np.ones_like(scores))
