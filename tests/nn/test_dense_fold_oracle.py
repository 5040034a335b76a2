"""Dense's folded gemm against the per-group product it replaced.

``Dense.forward`` folds a ``(B, n, in)`` input into one
``(B * n, in) @ W`` gemm and adds the bias in place; a score layer of
one or two outputs (fc7) keeps ``x @ W + b`` over the leading axes,
which numpy runs as one small gemm per group.  Inference also scores
``DLAttack._SCORE_CHUNK`` groups per call, where it used to score the
training batch (``config.batch_groups``, 8 groups).
:func:`stacked_forward`, the old ``Dense.forward``, is patched back in
as the oracle, with the old 8-group chunking.

Which equality holds on which OpenBLAS kernel family:

* AVX-512 (SkylakeX) kernels: the fold is bitwise equal to the
  per-group product at every layer shape the network folds, and for
  any number of groups per call.  The ``bitwise`` tests check this
  layer by layer and on the scores of every committed feature file:
  image files through ``forward_from_embeddings``, vector-only files
  through ``forward``.  A folded fc7 is *not* bitwise there.
* AVX2 (Haswell) kernels: the fold is not bitwise.  A 120-row gemm
  differs from the 15-row one by up to ~3e-5 on the 128- and 256-wide
  layers.  What holds there is the assignment equality: every DL
  assignment dict equals the oracle's, in values and in order.  CI
  runs these tests under ``OPENBLAS_CORETYPE=Haswell`` with
  ``-k "not bitwise"``.

Both equalities are measured, not structural.
"""

import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.core import AttackConfig, SplitDataset
from repro.core.artifacts import features_key
from repro.core.attack import DLAttack
from repro.core.model import SplitNet
from repro.eval.figure5 import variant_config
from repro.netlist.benchmarks import TABLE3_SPECS
from repro.nn import Dense
from repro.pipeline import clear_memo, get_split, trained_attack

COMMITTED = Path(__file__).resolve().parents[2] / ".repro_cache"
LAYERS = (1, 3)
TABLE3 = tuple(s.name for s in TABLE3_SPECS)
BASE = AttackConfig.benchmark()
# Every committed model whose features are committed: the benchmark
# model reads the image files; both vector-only Figure 5 models read
# the vector-only ones (fc7 has one output in "vec", two in
# "two-class").
MODELS = {
    "images": BASE,
    "vec": variant_config(BASE, "vec"),
    "two-class": variant_config(BASE, "two-class"),
}
# Groups per scoring call before the fold: the training batch.
OLD_CHUNK = BASE.batch_groups


def stacked_forward(self, x):
    """The old ``Dense.forward``: ``x @ W + b`` over the leading axes."""
    if x.shape[-1] != self.in_features:
        raise ValueError(f"Dense expected last dim {self.in_features}")
    self._x = x if self.training else None
    return x @ self.weight.value + self.bias.value


def bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.uint32)


# -- per layer shape --------------------------------------------------------


@pytest.mark.parametrize("groups", [1, 8, 32, 64, 67])
@pytest.mark.parametrize(
    "shape",
    [(27, 128), (128, 128), (256, 128), (128, 32), (32, 1), (32, 2)],
    ids=lambda s: f"{s[0]}to{s[1]}",
)
def test_layer_fold_bitwise(shape, groups):
    """Every network fc shape: folded output == the per-group product,
    in eval and in training mode; 32 -> 1 and 32 -> 2 stay unfolded."""
    rng = np.random.default_rng(sum(shape) + groups)
    layer = Dense(*shape, rng=rng)
    layer.bias.value[:] = rng.standard_normal(shape[1])
    x = rng.standard_normal((groups, 15, shape[0])).astype(np.float32)
    want = stacked_forward(layer, x)
    assert want.dtype == np.float32
    for mode in (layer.eval, layer.train):
        mode()
        got = layer(x)
        assert got.shape == want.shape and got.dtype == want.dtype
        np.testing.assert_array_equal(bits(got), bits(want))
        # A batch of one group and 2-D input go through the same fold.
        np.testing.assert_array_equal(bits(layer(x[0])), bits(want[0]))


# -- every committed feature file -------------------------------------------


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


def scored_select(attack, dataset):
    """``attack._select_dataset`` with every score array it assigns
    from: (assignment, scores of all groups in order)."""
    scores = []
    assign = DLAttack._assign_choices

    def recording(self, dataset, idx, batch_scores, assignment):
        scores.append(batch_scores)
        assign(self, dataset, idx, batch_scores, assignment)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DLAttack, "_assign_choices", recording)
        assignment = attack._select_dataset(dataset)
    return assignment, np.concatenate(scores)


@pytest.fixture(scope="module")
def runs(cache):
    """``runs(design, layer)``: for each committed feature file of one
    layout, the production select, the fold at the old chunking and the
    oracle, computed once per module."""
    memo = {}

    def get(design, layer):
        if (design, layer) not in memo:
            split = get_split(design, layer)
            committed = committed_feature_keys(cache)
            out = {}
            for name, config in MODELS.items():
                if features_key(split, config) not in committed:
                    continue
                attack = trained_attack(layer, config)
                dataset = SplitDataset(split, config)
                run = {"production": scored_select(attack, dataset)}
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(DLAttack, "_SCORE_CHUNK", OLD_CHUNK)
                    run["fold"] = scored_select(attack, dataset)
                    patch.setattr(Dense, "forward", stacked_forward)
                    run["oracle"] = scored_select(attack, dataset)
                out[name] = run
            assert out, f"no committed feature file for {design}/M{layer}"
            memo[design, layer] = out
        return memo[design, layer]

    return get


def test_every_committed_feature_file_is_enumerated(cache):
    """The parametrised cases below score each committed feature file."""
    keys = {
        features_key(get_split(design, layer), config)
        for design in TABLE3
        for layer in LAYERS
        for config in MODELS.values()
    }
    assert committed_feature_keys(cache) <= keys


@pytest.mark.parametrize("layer", LAYERS)
@pytest.mark.parametrize("design", TABLE3)
def test_scores_bitwise_equal_to_oracle(runs, design, layer):
    for name, run in runs(design, layer).items():
        want = bits(run["oracle"][1])
        np.testing.assert_array_equal(bits(run["fold"][1]), want, err_msg=name)
        np.testing.assert_array_equal(
            bits(run["production"][1]), want, err_msg=name
        )


@pytest.mark.parametrize("layer", LAYERS)
@pytest.mark.parametrize("design", TABLE3)
def test_assignments_equal_oracle(runs, design, layer):
    for name, run in runs(design, layer).items():
        want = list(run["oracle"][0].items())
        assert want, name
        assert list(run["production"][0].items()) == want, name
        assert list(run["fold"][0].items()) == want, name


@pytest.mark.parametrize("model", ["images", "vec"])
def test_inference_scores_score_chunks(cache, monkeypatch, model):
    """Each scoring call takes ``_SCORE_CHUNK`` groups (the last one
    the rest), whatever the training batch.  The calls run on the
    block pool, so they start in no fixed order."""
    config = MODELS[model]
    assert config.batch_groups != DLAttack._SCORE_CHUNK
    chunk = 6  # neither of the above, and short of c880's 35 groups
    monkeypatch.setattr(DLAttack, "_SCORE_CHUNK", chunk)
    name = "forward_from_embeddings" if config.use_images else "forward"
    real = getattr(SplitNet, name)
    sizes = []

    def counting(self, vec, *args):
        sizes.append(vec.shape[0])
        return real(self, vec, *args)

    monkeypatch.setattr(SplitNet, name, counting)
    attack = trained_attack(3, config)
    dataset = SplitDataset(get_split("c880", 3), config)
    attack._select_dataset(dataset)
    n_groups = len(dataset.groups)
    assert n_groups % chunk
    assert sorted(sizes, reverse=True) == [
        min(chunk, n_groups - start) for start in range(0, n_groups, chunk)
    ]
