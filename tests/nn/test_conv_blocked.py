"""Blocked vs reference conv matmul: bit-exactness and correctness.

The stride<kernel Conv2D path has two execution modes sharing one
block partition (see ``repro.nn.conv_utils``): ``"reference"`` (the
test oracle) materialises the full K-major cols array, ``"blocked"``
(production) gathers K-major blocks from the strided window view one
image block at a time.  Because both issue identical per-block gemms,
every output — forward activations, weight and bias gradients, input
gradients — must match *bitwise*, not just approximately, on any BLAS.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    Conv2D,
    check_module_gradients,
    conv_output_size,
    same_padding,
)
from repro.nn.conv_utils import _BLOCK_TARGET_ELEMS, images_per_block


def naive_conv2d(x, weight, kernel, stride):
    """Reference direct convolution (SAME padding), NCHW."""
    n, c, h, w = x.shape
    out_c = weight.shape[1]
    ph = same_padding(h, kernel, stride)
    pw = same_padding(w, kernel, stride)
    xp = np.pad(x, ((0, 0), (0, 0), ph, pw))
    oh = conv_output_size(h, kernel, stride)
    ow = conv_output_size(w, kernel, stride)
    out = np.zeros((n, out_c, oh, ow))
    w4 = weight.reshape(c, kernel, kernel, out_c)
    for i in range(oh):
        for j in range(ow):
            patch = xp[
                :, :,
                i * stride : i * stride + kernel,
                j * stride : j * stride + kernel,
            ]
            out[:, :, i, j] = np.einsum("nckl,cklo->no", patch, w4)
    return out


def _run_both_modes(x, grad_seed, **conv_kwargs):
    """Forward + backward in both modes; returns per-mode arrays."""
    out = {}
    for mode in ("blocked", "reference"):
        conv = Conv2D(
            rng=np.random.default_rng(7), matmul_mode=mode, **conv_kwargs
        )
        y = conv(x)
        g = (
            np.random.default_rng(grad_seed)
            .standard_normal(y.shape)
            .astype(x.dtype)
        )
        conv.weight.grad[...] = 0.0
        conv.bias.grad[...] = 0.0
        gx = conv.backward(g)
        out[mode] = (y, conv.weight.grad.copy(), conv.bias.grad.copy(), gx)
    return out


class TestBlockedBitExact:
    @given(
        n=st.integers(1, 5),
        c=st.integers(1, 4),
        out_c=st.integers(1, 5),
        h=st.integers(1, 13),
        w=st.integers(1, 13),
        kernel=st.sampled_from([2, 3, 5]),
        stride=st.sampled_from([1, 2]),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_forward_backward_bit_exact(
        self, n, c, out_c, h, w, kernel, stride, seed
    ):
        if stride >= kernel:
            stride = 1
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, c, h, w)).astype(np.float32)
        res = _run_both_modes(
            x, seed + 1,
            in_channels=c, out_channels=out_c, kernel=kernel, stride=stride,
        )
        for blocked, reference in zip(res["blocked"], res["reference"]):
            np.testing.assert_array_equal(blocked, reference)

    def test_multi_block_partition_bit_exact(self):
        """Force several blocks (the interesting case: the partition
        boundaries and the per-block accumulation order must agree)."""
        c, k, h = 8, 3, 33
        ipb = images_per_block(h * h, c * k * k)
        n = 3 * ipb + 1  # three full blocks plus a remainder block
        x = (
            np.random.default_rng(0)
            .standard_normal((n, c, h, h))
            .astype(np.float32)
        )
        res = _run_both_modes(
            x, 1, in_channels=c, out_channels=16, kernel=k, stride=1
        )
        for blocked, reference in zip(res["blocked"], res["reference"]):
            np.testing.assert_array_equal(blocked, reference)

    def test_float64_bit_exact(self):
        x = np.random.default_rng(3).standard_normal((5, 2, 9, 9))
        res = _run_both_modes(
            x, 4, in_channels=2, out_channels=6, kernel=3, stride=1
        )
        for blocked, reference in zip(res["blocked"], res["reference"]):
            np.testing.assert_array_equal(blocked, reference)


class TestBlockedCorrectness:
    @given(
        c=st.integers(1, 3),
        out_c=st.integers(1, 4),
        h=st.integers(1, 9),
        w=st.integers(1, 9),
        stride=st.sampled_from([1, 2]),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_naive_convolution(self, c, out_c, h, w, stride, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, c, h, w))
        conv = Conv2D(
            c, out_c, kernel=3, stride=stride,
            rng=np.random.default_rng(seed), matmul_mode="blocked",
        )
        conv.bias.value[...] = 0.0
        y = conv(x)
        np.testing.assert_allclose(
            y, naive_conv2d(x, conv.weight.value, 3, stride), atol=1e-10
        )

    def test_gradcheck_blocked_mode(self):
        conv = Conv2D(
            2, 3, kernel=3, stride=1,
            rng=np.random.default_rng(5), matmul_mode="blocked",
        )
        x = np.random.default_rng(6).standard_normal((2, 2, 5, 5))
        check_module_gradients(conv, x)


class TestModeSelection:
    def test_partition_is_shape_only(self):
        # The block size must be a pure function of the logical shape —
        # that's what keeps the two modes aligned.
        assert images_per_block(1, 1) == _BLOCK_TARGET_ELEMS
        assert images_per_block(10**9, 10**9) == 1

    def test_blocked_avoids_full_cols_materialisation(self):
        """The point of the blocked mode: its forward cache holds the
        padded input, not a kernel**2-times-larger cols copy."""
        conv = Conv2D(4, 4, kernel=3, stride=1)
        assert conv.matmul_mode == "blocked"
        x = np.zeros((2, 4, 15, 15), dtype=np.float32)
        conv(x)
        kind, store, _, _ = conv._cache
        assert kind == "general" and store[0] == "xp"
        assert store[1].nbytes <= x.nbytes * 2  # padded input, not cols
        ref = Conv2D(4, 4, kernel=3, stride=1, matmul_mode="reference")
        ref(x)
        _, ref_store, _, _ = ref._cache
        assert ref_store[0] == "cols"
        assert ref_store[1].nbytes >= x.nbytes * 8  # the 9x cols copy

    def test_stride_equals_kernel_ignores_mode(self):
        """The non-overlapping fast path is mode-independent."""
        x = np.random.default_rng(1).standard_normal((2, 3, 9, 9)).astype(
            np.float32
        )
        outs = []
        for mode in ("blocked", "reference"):
            conv = Conv2D(
                3, 4, kernel=3, stride=3,
                rng=np.random.default_rng(2), matmul_mode=mode,
            )
            outs.append(conv(x))
            assert conv._cache[0] == "nonoverlap"
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="matmul mode"):
            Conv2D(2, 2, matmul_mode="auto")
