"""The training backward through the conv tower is bitwise the old path.

Three changes made the tower's training backward cheaper, each equal by
construction rather than by measurement on one BLAS:

* training ``LeakyReLU`` takes ``np.maximum(x, alpha * x)`` forward and
  multiplies the gradient by a slope of 1 or alpha backward, where the
  oracle selects with ``np.where``;
* stride-1 input gradients fold channels-last (:func:`fold_nhwc`) with
  the same per-pixel ``(ki, kj)`` adds as the NCHW oracle
  :func:`_col2im_general`, and stride == kernel ones copy channels-last;
  no gemm operand changes;
* ``SplitNet``'s training backward skips the first conv's input
  gradient (d loss / d images), which no parameter reads.

The end-to-end oracle runs the old path (full ``tower.backward``,
``np.where`` LeakyReLU, NCHW folds, ``np.pad``) by patching those
pieces back in, and compares every parameter gradient after a few
accumulated steps on c432's committed feature tensors, through
``backward_deduplicated`` on two batch forms: the unique-image batch
training uses ("dedup") and the materialised one ("stacked": every slot
its own image, built as an identity gather by ``tests/identity_gather.py``).

The only values on which the ``LeakyReLU`` forms differ are signalling
NaNs, which no float operation produces: ``np.maximum`` passes one
through where ``alpha * x`` quiets it, and the slope multiply quiets a
signalling NaN gradient that ``np.where`` passes through.

The tower equalities hold for batches of two or more images.  With one
image the old path's ``(rows, C)`` gradient was an F-ordered view, and
``g.sum(axis=0)`` sums that in a different order, so one-image conv
bias gradients differ in the last bits; weight and image gradients
stay equal.  Training never builds a one-image tower batch: a labelled
group holds its sink and a true source, two fragments and so two
image-table rows (``test_training_batches_hold_two_or_more_images``).
"""

from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import AttackConfig, DLAttack
from repro.core.artifacts import ArtifactStore, features_key, weights_key
from repro.core.dataset import SplitDataset, make_batch
from repro.core.model import SplitNet
from repro.nn import LeakyReLU, conv_output_size, softmax_regression_loss
from repro.nn import layers as layers_mod
from repro.nn.conv_utils import (
    _col2im_general,
    fold_nhwc,
    images_per_block,
    same_padding,
)
from repro.pipeline import clear_memo, default_train_names, get_split

from identity_gather import materialised_batch
from test_conv_kmajor_oracle import stride1_convs

COMMITTED = Path(__file__).resolve().parents[2] / ".repro_cache"
CONFIG = AttackConfig.benchmark()
ALPHAS = (0.01, 0.1, 0.2)
UINT = {np.float32: np.uint32, np.float64: np.uint64}


def bits(a):
    a = np.ascontiguousarray(a)
    return a.view(UINT[a.dtype.type])


def assert_bitwise(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(bits(got), bits(want))


# -- LeakyReLU ----------------------------------------------------------


def quiet_bit(dtype):
    return UINT[dtype](1) << UINT[dtype](np.finfo(dtype).nmant - 1)


def is_signalling(values):
    dtype = values.dtype.type
    return np.isnan(values) & ((bits(values) & quiet_bit(dtype)) == 0)


def specials(dtype):
    info = np.finfo(dtype)
    tiny = info.smallest_subnormal
    return np.array(
        [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, tiny, -tiny,
         info.tiny, -info.tiny, info.tiny - tiny, -(info.tiny - tiny),
         info.max, -info.max, 1.0, -1.0],
        dtype=dtype,
    )


def draws(dtype, n, rng):
    """Half uniformly random bit patterns (every class, NaN payloads
    included, signalling NaNs made quiet), half normals over a wide
    exponent range."""
    uint = UINT[dtype]
    raw = rng.integers(0, np.iinfo(uint).max, size=n // 2, dtype=uint,
                       endpoint=True).view(dtype)
    raw = np.where(is_signalling(raw), (bits(raw) | quiet_bit(dtype)).view(dtype), raw)
    wide = rng.standard_normal(n - n // 2) * np.exp2(rng.integers(-150, 120, n - n // 2))
    return np.concatenate([raw, wide.astype(dtype)])


def where_forward(self, x):
    self._mask = x > 0
    return np.where(self._mask, x, self.alpha * x)


def where_backward(self, grad):
    out = np.where(self._mask, grad, self.alpha * grad)
    self._mask = None
    return out


def leaky_pair(alpha, x, grad):
    """(forward, backward) of a training LeakyReLU."""
    layer = LeakyReLU(alpha)
    return layer(x), layer.backward(grad)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("alpha", ALPHAS)
def test_leaky_relu_bitwise_on_specials(alpha, dtype):
    values = specials(dtype)
    x = np.repeat(values, values.size)  # every (x, grad) pair
    grad = np.tile(values, values.size)
    with np.errstate(all="ignore"):
        got = leaky_pair(alpha, x, grad)
        layer = LeakyReLU(alpha)
        want = (where_forward(layer, x), where_backward(layer, grad))
    assert_bitwise(got[0], want[0])
    assert_bitwise(got[1], want[1])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("alpha", ALPHAS)
def test_leaky_relu_bitwise_on_random_draws(alpha, dtype):
    rng = np.random.default_rng(int(alpha * 100) + dtype(0).itemsize)
    x = draws(dtype, 1_000_000, rng).reshape(10, 100, 1000)
    grad = draws(dtype, 1_000_000, rng).reshape(10, 100, 1000)
    with np.errstate(all="ignore"):
        got = leaky_pair(alpha, x, grad)
        layer = LeakyReLU(alpha)
        want = (where_forward(layer, x), where_backward(layer, grad))
    assert_bitwise(got[0], want[0])
    assert_bitwise(got[1], want[1])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_leaky_relu_signalling_nan_is_the_only_difference(dtype):
    """A signalling NaN is quieted where the old form passed it through
    (gradient, mask true) or passed through where the old form quieted
    it (forward input); every other lane stays equal."""
    uint = UINT[dtype]
    exp_bits = bits(np.array([np.inf], dtype=dtype))[0]
    snan = np.array([exp_bits | uint(1), exp_bits | uint(5)], dtype=uint)
    snan = np.concatenate([snan, snan | (uint(1) << uint(8 * snan.itemsize - 1))])
    snan = snan.view(dtype)
    assert is_signalling(snan).all()
    x = np.array([1.0, -1.0, 2.0, -2.0], dtype=dtype)
    with np.errstate(all="ignore"):
        _, grad_out = leaky_pair(0.01, x, snan)
        fwd, _ = leaky_pair(0.01, snan, x)
    quiet = (bits(snan) | quiet_bit(dtype)).view(dtype)
    # Backward: mask true (x > 0) quiets; mask false is alpha * g in
    # both forms, which quiets too.
    assert_bitwise(grad_out, quiet)
    # Forward: np.maximum returns the signalling NaN itself.
    assert_bitwise(fwd, snan)


# -- channels-last fold -------------------------------------------------


CASES = [
    pytest.param(c_in, size, id=f"{name}-M{layer}-{c_in}ch@{size}")
    for name, config in (("benchmark", AttackConfig.benchmark()),
                         ("paper", AttackConfig.paper()))
    for layer in (1, 3)
    for c_in, size in sorted({(c, s) for c, _, s in stride1_convs(config, layer)})
]


@pytest.mark.parametrize("c_in, size", CASES)
def test_fold_nhwc_bitwise_equal_to_nchw_fold(c_in, size):
    """Every stride-1 tower layer, at every block size the backward
    issues (1 .. images_per_block images)."""
    rng = np.random.default_rng(size * 1000 + c_in)
    pad = same_padding(size, 3, 1)
    hp = size + sum(pad)
    out = conv_output_size(size, 3, 1)
    for n in range(1, images_per_block(size * size, c_in * 9) + 1):
        cols = rng.standard_normal((n * out * out, c_in * 9)).astype(np.float32)
        want = _col2im_general(cols, (n, c_in, hp, hp), out, out, 3, 1)
        got = np.zeros((n, hp, hp, c_in), dtype=np.float32)
        fold_nhwc(cols, got, out, out, 3, 1)
        assert_bitwise(got.transpose(0, 3, 1, 2), want)


# -- SplitNet training backward vs the old path -------------------------


def nchw_backward_blocks(get_block, n_images, rows_per_image, ipb, weight,
                         g2d, padded_shape, out_h, out_w, kernel, stride,
                         input_grad=True):
    """The block backward before the channels-last fold."""
    assert input_grad
    _, c, hp, wp = padded_shape
    wg = np.zeros_like(weight)
    bg = np.zeros(weight.shape[1], dtype=weight.dtype)
    grad_padded = np.zeros((n_images, c, hp, wp), dtype=g2d.dtype)
    for a in range(0, n_images, ipb):
        b = min(a + ipb, n_images)
        g_b = g2d[a * rows_per_image : b * rows_per_image]
        wg += get_block(a, b) @ np.ascontiguousarray(g_b)
        bg += g_b.sum(axis=0)
        grad_padded[a:b] = _col2im_general(
            g_b @ weight.T, (b - a, c, hp, wp), out_h, out_w, kernel, stride
        )
    return wg, bg, grad_padded


def nchw_col2im(cols, padded_shape, orig_hw, kernel, stride):
    """The stride == kernel fold before it went channels-last."""
    assert stride == kernel
    n, c, hp, wp = padded_shape
    h, w = orig_hw
    out_h, out_w = hp // kernel, wp // kernel
    grad = (
        cols.reshape(n, out_h, out_w, c, kernel, kernel)
        .transpose(0, 3, 1, 4, 2, 5)
        .reshape(n, c, hp, wp)
    )
    top, left = same_padding(h, kernel, stride)[0], same_padding(w, kernel, stride)[0]
    return grad[:, :, top : top + h, left : left + w]


def np_pad_input(x, kernel, stride):
    pad_h = same_padding(x.shape[2], kernel, stride)
    pad_w = same_padding(x.shape[3], kernel, stride)
    if pad_h == (0, 0) and pad_w == (0, 0):
        return x, x.shape
    xp = np.pad(x, ((0, 0), (0, 0), pad_h, pad_w), mode="constant",
                constant_values=0.0)
    return xp, xp.shape


def use_old_path(monkeypatch):
    monkeypatch.setattr(LeakyReLU, "forward", where_forward)
    monkeypatch.setattr(LeakyReLU, "backward", where_backward)
    monkeypatch.setattr(layers_mod, "conv_backward_blocks", nchw_backward_blocks)
    monkeypatch.setattr(layers_mod, "col2im", nchw_col2im)
    monkeypatch.setattr(layers_mod, "pad_input", np_pad_input)
    monkeypatch.setattr(
        SplitNet, "_tower_backward", lambda self, g: self.tower.backward(g)
    )


@pytest.fixture(scope="module", params=[1, 3], ids=["M1", "M3"])
def committed(request):
    """(train-mode model, normaliser, stub dataset) on c432's committed
    M-layer weights and feature tensors; targets drawn at random."""
    layer = request.param
    patcher = pytest.MonkeyPatch()
    patcher.setenv("REPRO_CACHE_DIR", str(COMMITTED))
    clear_memo()
    try:
        split = get_split("c432", layer)  # reads the committed DEF
    finally:
        clear_memo()
        patcher.undo()
    store = ArtifactStore(COMMITTED)
    attack = DLAttack(CONFIG, layer)
    attack.load(store.path("weights", weights_key(CONFIG, layer, default_train_names())))
    attack.model.train()
    with np.load(store.path("features", features_key(split, CONFIG))) as data:
        arrays = {k: data[k] for k in data.files}
    n_valid = arrays["n_valid"]
    rng = np.random.default_rng(layer)
    tensors = SimpleNamespace(
        vec=arrays["vec"],
        mask=np.arange(arrays["vec"].shape[1]) < n_valid[:, None],
        targets=rng.integers(0, n_valid),
        src_index=arrays["src_index"],
        sink_index=arrays["sink_index"],
        image_table=arrays["image_table"],
    )
    dataset = SimpleNamespace(tensors=tensors, config=CONFIG)
    return attack.model, attack.normalizer, dataset


def accumulated_grads(model, normalizer, dataset, dedup, steps=3, per_step=5):
    """Parameter gradients after ``steps`` accumulated training steps."""
    build = make_batch if dedup else materialised_batch
    for p in model.parameters():
        p.grad[...] = 0.0
    for step in range(steps):
        batch = build(
            dataset, np.arange(step * per_step, (step + 1) * per_step),
            normalizer,
        )
        scores = model.forward_deduplicated(
            batch.vec, batch.image_batch, batch.src_gather, batch.sink_gather
        )
        _, grad = softmax_regression_loss(scores, batch.targets, batch.mask)
        model.backward_deduplicated(grad)
    return {p.name: p.grad.copy() for p in model.parameters()}


@pytest.mark.parametrize("layer", [1, 3], ids=["M1", "M3"])
def test_training_batches_hold_two_or_more_images(layer, monkeypatch):
    """Every training batch's tower batch holds two or more images, so
    the one-image bias order of the module docstring never arises in
    training.  A batch holds at least one labelled group; checked here
    for each labelled group of c432 alone."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(COMMITTED))
    clear_memo()
    try:
        dataset = SplitDataset(get_split("c432", layer), CONFIG)
    finally:
        clear_memo()
    attack = DLAttack(CONFIG, layer)
    attack.load(ArtifactStore(COMMITTED).path(
        "weights", weights_key(CONFIG, layer, default_train_names())))
    labelled = np.flatnonzero(dataset.tensors.targets >= 0)
    assert labelled.size
    for index in labelled:
        batch = make_batch(dataset, [index], attack.normalizer)
        assert batch.image_batch.shape[0] >= 2


@pytest.mark.parametrize("dedup", [True, False], ids=["dedup", "stacked"])
def test_parameter_gradients_bitwise_equal_to_old_path(committed, dedup, monkeypatch):
    model, normalizer, dataset = committed
    got = accumulated_grads(model, normalizer, dataset, dedup)
    use_old_path(monkeypatch)
    want = accumulated_grads(model, normalizer, dataset, dedup)
    assert sorted(got) == sorted(want)
    assert any(name.startswith("conv1_1") for name in got)
    for name in want:
        assert np.any(want[name]), name
        assert_bitwise(got[name], want[name])


@pytest.mark.parametrize("n_images", [1, 5])
def test_tower_backward_still_returns_image_gradient(
    committed, n_images, monkeypatch
):
    model, _, dataset = committed
    images = dataset.tensors.image_table[:n_images].astype(np.float32)
    grad_emb = np.random.default_rng(0).standard_normal(
        (images.shape[0], CONFIG.fc_width)).astype(np.float32)

    def image_grad():
        for p in model.tower.parameters():
            p.grad[...] = 0.0
        model.tower(images)
        return (model.tower.backward(grad_emb),
                {p.name: p.grad.copy() for p in model.tower.parameters()})

    got, got_params = image_grad()
    use_old_path(monkeypatch)
    want, want_params = image_grad()
    assert got.shape == images.shape
    assert np.any(want)
    assert_bitwise(got, want)
    for name in want_params:
        if n_images == 1 and name.endswith(".bias"):
            # Summed in another order (module docstring); no training
            # batch holds one image.
            continue
        assert_bitwise(got_params[name], want_params[name])
