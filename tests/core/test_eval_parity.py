"""Eval-mode inference is bitwise the reference paths.

Runs the committed M1 and M3 benchmark weights over c432's committed
feature tensors, once as shipped and once against an oracle:

* ``LeakyReLU.forward`` replaced by the masked ``np.where`` form that
  training uses (eval mode takes ``np.maximum``): tower embeddings and
  ``forward_from_embeddings`` scores must agree bit for bit;
* ``Conv2D.forward`` replaced by the row-major gather (``cols @ W``
  over rows of ``_im2col_general``, same block partition) that the
  K-major blocks replaced: tower embeddings must agree bit for bit.

The second equality is measured, not structural (see
``repro.nn.conv_utils``).  It holds for these committed weights and
for every benchmark-config layer shape; the ``tiny()`` config's small
convs (4-, 8- and 12-channel inputs) are *not* bitwise with the
row-major layout on OpenBLAS's AVX-512 kernels, and that config has no
committed artifact.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.core import AttackConfig, DLAttack
from repro.core.artifacts import ArtifactStore, features_key, weights_key
from repro.nn import Conv2D, LeakyReLU, conv_output_size
from repro.nn.conv_utils import _im2col_general, images_per_block
from repro.pipeline import clear_memo, default_train_names, get_split

COMMITTED = Path(__file__).resolve().parents[2] / ".repro_cache"
CONFIG = AttackConfig.benchmark()
DESIGN = "c432"


def masked_forward(self, x):
    self._mask = x > 0
    return np.where(self._mask, x, self.alpha * x)


def row_major_conv_forward(self, x):
    """Eval-mode ``Conv2D.forward`` with the row-major cols layout."""
    n, _, h, w = x.shape
    out_h = conv_output_size(h, self.kernel, self.stride)
    out_w = conv_output_size(w, self.kernel, self.stride)
    cols, _ = _im2col_general(x, self.kernel, self.stride)
    weight, bias = self.weight.value, self.bias.value
    if self.stride == self.kernel:
        out = cols @ weight + bias
    else:
        rows = out_h * out_w
        ipb = images_per_block(rows, cols.shape[1])
        out = np.concatenate([
            cols[a * rows : (a + ipb) * rows] @ weight + bias
            for a in range(0, n, ipb)
        ])
    return out.reshape(n, out_h, out_w, -1).transpose(0, 3, 1, 2)


@pytest.fixture(params=[1, 3], ids=["M1", "M3"])
def committed(request, monkeypatch):
    """(eval-mode attack, raw feature arrays) from the committed cache."""
    layer = request.param
    store = ArtifactStore(COMMITTED)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(COMMITTED))
    clear_memo()
    try:
        split = get_split(DESIGN, layer)  # reads the committed DEF
    finally:
        clear_memo()
    key = weights_key(CONFIG, layer, default_train_names())
    attack = DLAttack(CONFIG, layer)
    attack.load(store.path("weights", key))
    attack.model.eval()
    features = store.path("features", features_key(split, CONFIG))
    with np.load(features) as data:
        arrays = {k: data[k] for k in ("vec", "image_table",
                                       "src_index", "sink_index")}
    return attack, arrays


def scores_and_embeddings(attack, arrays):
    """The production inference sequence of ``_select_deduplicated``."""
    model, chunk = attack.model, DLAttack._EMBED_CHUNK
    table = arrays["image_table"].astype(np.float32)
    emb = np.concatenate([
        model.embed_images(table[s : s + chunk])
        for s in range(0, table.shape[0], chunk)
    ])
    groups = arrays["vec"].shape[0]
    batch = DLAttack._SCORE_CHUNK
    scores = []
    for s in range(0, groups, batch):
        idx = np.arange(s, min(s + batch, groups))
        scores.append(model.forward_from_embeddings(
            attack.normalizer.transform(arrays["vec"][idx]),
            emb[arrays["src_index"][idx]],
            emb[arrays["sink_index"][idx]],
        ))
    return emb, np.concatenate(scores)


def test_committed_weights_bitwise_equal_to_masked_oracle(
    committed, monkeypatch
):
    attack, arrays = committed
    emb, scores = scores_and_embeddings(attack, arrays)
    monkeypatch.setattr(LeakyReLU, "forward", masked_forward)
    ref_emb, ref_scores = scores_and_embeddings(attack, arrays)
    assert emb.shape[0] == arrays["image_table"].shape[0]
    np.testing.assert_array_equal(
        emb.view(np.uint32), ref_emb.view(np.uint32)
    )
    np.testing.assert_array_equal(
        scores.view(np.uint32), ref_scores.view(np.uint32)
    )


def test_committed_weights_bitwise_equal_to_row_major_conv(
    committed, monkeypatch
):
    attack, arrays = committed
    emb, _ = scores_and_embeddings(attack, arrays)
    monkeypatch.setattr(Conv2D, "forward", row_major_conv_forward)
    ref_emb, _ = scores_and_embeddings(attack, arrays)
    np.testing.assert_array_equal(
        emb.view(np.uint32), ref_emb.view(np.uint32)
    )
