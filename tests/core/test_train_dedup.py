"""Unique-image training vs the materialised form, as an identity gather.

Training batches (``make_batch``) carry each distinct image of the batch
once plus gather indices, and ``SplitNet.forward_deduplicated``/
``backward_deduplicated`` gather shared embedding rows forward and
scatter-add their gradients backward.  The materialised form (every
slot its own image) is the same computation on an identity gather
(``tests/identity_gather.py``), which these tests use as the reference.

What is asserted at which strength:

* **bitwise** where the arrays are structurally the same — batch
  reconstruction (``image_batch[src_gather]`` vs the materialised
  images) and the ``np.add.at`` scatter vs an explicit per-slot loop;
* **float64 gradcheck** of every parameter gradient through the
  production ``forward_deduplicated``/``backward_deduplicated`` pair,
  with deliberately duplicated gather rows and a sink row that is also
  a source row, so the scatter-add must sum shared rows;
* **calibrated allclose** for loss curves and final weights against
  the identity gather: the two issue different-shaped tower gemms (U
  unique vs B*n+B rows), and BLAS kernel dispatch varies with the
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
from repro.core.dataset import SplitDataset, make_batch
from repro.core.model import SplitNet
from repro.layout import build_layout
from repro.netlist import RandomLogicGenerator
from repro.nn import (
    check_callable_gradients,
    softmax_regression_loss,
    two_class_loss,
)
from repro.split import split_design

from identity_gather import materialised_batch, materialised_images


@pytest.fixture(scope="module")
def split():
    nl = RandomLogicGenerator().generate("dedup", 70, seed=101)
    return split_design(build_layout(nl), 3)


@pytest.fixture(scope="module")
def dataset(split):
    return SplitDataset(split, AttackConfig.tiny(), use_disk_cache=False)


@pytest.fixture(scope="module")
def labelled(dataset):
    return np.flatnonzero(dataset.tensors.targets >= 0)


def _fitted(cfg, dataset):
    attack = DLAttack(cfg, split_layer=3)
    attack.normalizer.fit(dataset.all_vector_rows())
    return attack


class TestBatchAssembly:
    def test_dedup_batch_reconstructs_bitwise(self, dataset, labelled):
        idx = labelled[:6]
        norm = _fitted(AttackConfig.tiny(), dataset).normalizer
        batch = make_batch(dataset, idx, norm)
        src, sink = materialised_images(dataset, idx)
        np.testing.assert_array_equal(batch.image_batch[batch.src_gather], src)
        np.testing.assert_array_equal(batch.image_batch[batch.sink_gather], sink)
        np.testing.assert_array_equal(
            batch.vec, norm.transform(dataset.tensors.vec[idx])
        )
        np.testing.assert_array_equal(
            batch.targets, dataset.tensors.targets[idx]
        )

    def test_dedup_batch_is_smaller(self, dataset, labelled):
        """The point of the exercise: far fewer tower images."""
        norm = _fitted(AttackConfig.tiny(), dataset).normalizer
        batch = make_batch(dataset, labelled, norm)
        slots = batch.src_gather.size + batch.sink_gather.size
        assert batch.image_batch.shape[0] < slots / 2

    def test_unique_rows_and_index_dtypes(self, dataset, labelled):
        norm = _fitted(AttackConfig.tiny(), dataset).normalizer
        ded = make_batch(dataset, labelled[:6], norm)
        flat = ded.image_batch.reshape(ded.image_batch.shape[0], -1)
        assert len(np.unique(flat, axis=0)) == flat.shape[0]
        assert ded.src_gather.dtype == np.intp
        assert ded.sink_gather.dtype == np.intp

    def test_concat_batches_offsets_gather_indices(self, dataset, labelled):
        idx = labelled[:8]
        norm = _fitted(AttackConfig.tiny(), dataset).normalizer
        b1 = make_batch(dataset, idx[:4], norm)
        b2 = make_batch(dataset, idx[4:], norm)
        merged = _concat_batches([b1, b2])
        src, sink = materialised_images(dataset, idx)
        np.testing.assert_array_equal(
            merged.image_batch[merged.src_gather], src
        )
        np.testing.assert_array_equal(
            merged.image_batch[merged.sink_gather], sink
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


def _small_net():
    cfg = AttackConfig(
        n_candidates=2, image_size=5, image_scales=(1,),
        conv_channels=(3,), convs_per_stage=1, fc_width=8,
        image_head_width=4, vector_res_blocks=1, merged_res_blocks=1,
    )
    return SplitNet(cfg, split_layer=1)


class TestGradcheck:
    def test_backward_deduplicated_with_duplicated_gathers(self):
        """float64 finite-difference check of every parameter gradient
        through the production forward/backward pair.  Source image 1
        is gathered twice and sink images 2 and 0 are source images
        too, so the scatter-add must sum gradients of shared rows."""
        net = _small_net()
        for p in net.parameters():
            p.value = p.value.astype(np.float64)
            p.grad = np.zeros_like(p.value)
        rng = np.random.default_rng(11)
        vec = rng.standard_normal((2, 2, 27))
        images = rng.standard_normal((3, 2, 5, 5))
        src_gather = np.array([[0, 1], [1, 2]], dtype=np.intp)
        sink_gather = np.array([2, 0], dtype=np.intp)  # reused as srcs too

        def forward():
            return net.forward_deduplicated(
                vec, images, src_gather, sink_gather
            )

        def backward(weights):
            forward()
            net.backward_deduplicated(weights)
            return {}

        errors = check_callable_gradients(
            forward, backward, {}, parameters=list(net.parameters()),
        )
        assert any(name.startswith("conv1_1") for name in errors)


class TestTrainingParity:
    @pytest.mark.parametrize("loss", ["softmax", "two_class"])
    def test_single_step_gradients_match(self, loss, dataset, labelled):
        loss_fn = (
            softmax_regression_loss if loss == "softmax" else two_class_loss
        )
        grads = {}
        for build in (make_batch, materialised_batch):
            cfg = AttackConfig.tiny().with_(loss=loss)
            attack = _fitted(cfg, dataset)
            attack.model.train()
            batch = build(dataset, labelled[:6], attack.normalizer)
            scores = attack.model.forward_deduplicated(
                batch.vec, batch.image_batch,
                batch.src_gather, batch.sink_gather,
            )
            _, grad = loss_fn(scores, batch.targets, batch.mask)
            for p in attack.model.parameters():
                p.grad[...] = 0.0
            attack.model.backward_deduplicated(grad)
            grads[build] = {
                p.name: p.grad.copy() for p in attack.model.parameters()
            }
        for name in grads[make_batch]:
            np.testing.assert_allclose(
                grads[make_batch][name], grads[materialised_batch][name],
                rtol=1e-4, atol=1e-5, err_msg=name,
            )

    @pytest.mark.parametrize("loss", ["softmax", "two_class"])
    def test_loss_curves_and_final_weights(self, loss, split, monkeypatch):
        runs = {}
        cfg = AttackConfig.tiny().with_(loss=loss, epochs=3)
        for dedup in (True, False):
            if not dedup:
                monkeypatch.setattr(
                    attack_mod, "make_batch", materialised_batch
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
    def _forward_dedup(self, net):
        rng = np.random.default_rng(0)
        vec = rng.standard_normal((2, 2, 27)).astype(np.float32)
        images = rng.standard_normal((3, 2, 5, 5)).astype(np.float32)
        return vec, net.forward_deduplicated(
            vec, images,
            np.array([[0, 1], [1, 2]], dtype=np.intp),
            np.array([2, 0], dtype=np.intp),
        )

    def test_plain_backward_rejects_dedup_forward(self):
        net = _small_net()
        _, scores = self._forward_dedup(net)
        with pytest.raises(RuntimeError, match="backward_deduplicated"):
            net.backward(np.ones_like(scores))

    def test_dedup_backward_rejects_embedding_forward(self):
        """Only the activations of a forward_deduplicated can be
        back-propagated to the tower, even when a forward_from_embeddings
        ran after one."""
        net = _small_net()
        vec, _ = self._forward_dedup(net)
        emb = np.zeros((2, 2, net.config.fc_width), dtype=np.float32)
        scores = net.forward_from_embeddings(vec, emb, emb[:, 0])
        with pytest.raises(RuntimeError, match="forward_deduplicated"):
            net.backward_deduplicated(np.ones_like(scores))
