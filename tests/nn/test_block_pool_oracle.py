"""The block pool is bitwise the same code with the pool disabled.

``Conv2D``'s stride<kernel blocks and ``DLAttack._select_dataset``'s
score chunks run on :func:`repro.nn.blocks.map_blocks`.  Each block
issues the same gemms on the same operands as a serial loop; forward
parts are concatenated, and weight and bias partials added onto zeros,
in block order; each block folds its input gradient into its own
disjoint slice; and assignments are made in group order.  So this
equality is structural: it must hold on every BLAS kernel family (CI
also runs it under ``OPENBLAS_CORETYPE=Haswell``).

The oracle is ``block_pool(1)``, which runs every block inline; the
pool runs with one and with two pool threads (``block_pool(2)``,
``block_pool(3)``), whatever the machine's CPU count.  Checked:

* forward outputs, and weight, bias and input gradients, of every conv
  layer of the ``benchmark()`` and ``paper()`` towers at M1 and M3, for
  calls of one to ``MAX_BLOCKS`` blocks (the last one partial);
* the tower embeddings of c432's unique images under the committed
  M1/M3 weights;
* the scores and assignments of every committed feature file.
"""

import shutil
from pathlib import Path

import numpy as np
import pytest

from block_pool import block_pool
from repro.core import AttackConfig, SplitDataset
from repro.core.artifacts import features_key
from repro.core.attack import DLAttack
from repro.core.model import SplitNet
from repro.eval.figure5 import variant_config
from repro.netlist.benchmarks import TABLE3_SPECS
from repro.nn import Conv2D, conv_output_size
from repro.nn.conv_utils import images_per_block
from repro.pipeline import clear_memo, get_split, trained_attack

COMMITTED = Path(__file__).resolve().parents[2] / ".repro_cache"
LAYERS = (1, 3)
TABLE3 = tuple(s.name for s in TABLE3_SPECS)
BASE = AttackConfig.benchmark()
MODELS = {
    "images": BASE,
    "vec": variant_config(BASE, "vec"),
    "two-class": variant_config(BASE, "two-class"),
}
POOLS = (2, 3)
MAX_BLOCKS = 5


def bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint32)


def assert_bitwise(got, want, msg=""):
    assert got.shape == want.shape and got.dtype == want.dtype, msg
    np.testing.assert_array_equal(bits(got), bits(want), err_msg=msg)


# -- every conv layer of the towers -----------------------------------------


def tower_convs(config, layer):
    """(in_channels, out_channels, stride, input size) of every conv in
    the tower."""
    net = SplitNet(config, layer)
    size, found = config.image_size, []
    for module in net.tower.modules:
        if isinstance(module, Conv2D):
            found.append(
                (module.in_channels, module.out_channels, module.stride, size)
            )
            size = conv_output_size(size, module.kernel, module.stride)
    return found


CONV_CASES = [
    pytest.param(c_in, c_out, stride, size,
                 id=f"{c_in}x{c_out}s{stride}@{size}")
    for c_in, c_out, stride, size in sorted({
        conv
        for config in (AttackConfig.benchmark(), AttackConfig.paper())
        for layer in LAYERS
        for conv in tower_convs(config, layer)
    })
]


def conv_step(c_in, c_out, stride, x, g, input_grad):
    """Forward and backward of a fresh training-mode conv: output,
    weight grad, bias grad, input grad (None without ``input_grad``)."""
    rng = np.random.default_rng(c_in * 100 + c_out)
    conv = Conv2D(c_in, c_out, kernel=3, stride=stride, rng=rng)
    conv.bias.value[...] = rng.standard_normal(c_out).astype(np.float32)
    y = conv(x)
    gx = conv.backward(g, input_grad=input_grad)
    return y, conv.weight.grad, conv.bias.grad, gx


@pytest.mark.parametrize("c_in, c_out, stride, size", CONV_CASES)
def test_conv_pool_bitwise_equal_to_inline(c_in, c_out, stride, size):
    out = conv_output_size(size, 3, stride)
    ipb = images_per_block(out * out, c_in * 9) if stride == 1 else 1
    rng = np.random.default_rng(size * 1000 + c_in)
    for blocks in range(1, MAX_BLOCKS + 1):
        n = (blocks - 1) * ipb + 1 + (ipb - 1) // 2
        x = rng.standard_normal((n, c_in, size, size)).astype(np.float32)
        g = rng.standard_normal((n, c_out, out, out)).astype(np.float32)
        for input_grad in (True, False):
            with block_pool(1):
                want = conv_step(c_in, c_out, stride, x, g, input_grad)
            for workers in POOLS:
                with block_pool(workers):
                    got = conv_step(c_in, c_out, stride, x, g, input_grad)
                for name, a, b in zip(("y", "wg", "bg", "gx"), got, want):
                    msg = f"{name}, {blocks} blocks, {workers} workers"
                    if b is None:
                        assert a is None, msg
                    else:
                        assert_bitwise(a, b, msg)


# -- committed weights and feature files ------------------------------------


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    """A copy of the committed cache: a rotated key would write into the
    copy, not the checkout."""
    if not (COMMITTED / "features").is_dir():
        pytest.skip("committed warm cache not present")
    root = tmp_path_factory.mktemp("committed") / "cache"
    shutil.copytree(COMMITTED, root)
    patcher = pytest.MonkeyPatch()
    patcher.setenv("REPRO_CACHE_DIR", str(root))
    clear_memo()
    yield root
    clear_memo()
    patcher.undo()


def committed_feature_keys(root: Path) -> set[str]:
    return {
        p.stem for p in (root / "features").glob("*.npz")
        if not p.stem.startswith("emb_")
    }


@pytest.mark.parametrize("layer", LAYERS)
def test_committed_embeddings_pool_bitwise_equal_to_inline(cache, layer):
    attack = trained_attack(layer, BASE)
    dataset = SplitDataset(get_split("c432", layer), BASE)
    table = dataset.tensors.image_table.astype(np.float32)
    chunk = DLAttack._EMBED_CHUNK
    with block_pool(1):
        want = [attack.model.embed_images(table[s : s + chunk])
                for s in range(0, len(table), chunk)]
    with block_pool(2):
        got = [attack.model.embed_images(table[s : s + chunk])
               for s in range(0, len(table), chunk)]
    assert want
    for a, b in zip(got, want):
        assert_bitwise(a, b)


def scored_select(attack, dataset):
    """``attack._select_dataset`` with every score array it assigns
    from: (assignment, scores of all groups in assignment order)."""
    scores = []
    assign = DLAttack._assign_choices

    def recording(self, dataset, idx, batch_scores, assignment):
        scores.append(batch_scores)
        assign(self, dataset, idx, batch_scores, assignment)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DLAttack, "_assign_choices", recording)
        assignment = attack._select_dataset(dataset)
    return assignment, np.concatenate(scores)


def test_every_committed_feature_file_is_enumerated(cache):
    keys = {
        features_key(get_split(design, layer), config)
        for design in TABLE3
        for layer in LAYERS
        for config in MODELS.values()
    }
    assert committed_feature_keys(cache) <= keys


@pytest.mark.parametrize("layer", LAYERS)
@pytest.mark.parametrize("design", TABLE3)
def test_scores_and_assignments_pool_equal_to_inline(cache, design, layer):
    split = get_split(design, layer)
    committed = committed_feature_keys(cache)
    scored = 0
    for name, config in MODELS.items():
        if features_key(split, config) not in committed:
            continue
        attack = trained_attack(layer, config)
        dataset = SplitDataset(split, config)
        with block_pool(1):
            want_assign, want_scores = scored_select(attack, dataset)
        for workers in POOLS:
            with block_pool(workers):
                got_assign, got_scores = scored_select(attack, dataset)
            assert_bitwise(got_scores, want_scores, name)
            assert list(got_assign.items()) == list(want_assign.items()), name
        scored += 1
    assert scored, f"no committed feature file for {design}/M{layer}"
