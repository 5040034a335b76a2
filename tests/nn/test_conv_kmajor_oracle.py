"""K-major conv blocks are bitwise equal to the row-major gather.

``Conv2D`` gathers each stride<kernel block as contiguous K-major cols
``colsT`` (C*k*k, rows) and runs ``colsT.T @ W`` and ``colsT @ g``;
the input gradient is ``g @ W.T`` folded by :func:`_col2im_general`.
The oracle is the row-major layout the gemms replaced: rows of
:func:`_im2col_general` (the blocked mode copied the same rows,
C-contiguous, from :func:`window_view`), ``cols @ W + b`` and
``cols.T @ g``.

The two layouts hand BLAS the same logical matrices, but one of them
transposed, so this equality is a measured property of the BLAS build,
not a structural one.  It holds on OpenBLAS's AVX-512 and AVX2
(``OPENBLAS_CORETYPE=Haswell``) kernels for every stride-1 layer of the
``benchmark()`` and ``paper()`` towers at M1 and M3, for every block
size from one image to ``images_per_block`` (each of which is one
gemm).  The ``tiny()`` config's small convs (4-, 8- and 12-channel
inputs) are *not* bitwise with the row-major layout on the AVX-512
kernels; that config has no committed artifact, and it is not covered
here.
"""

import numpy as np
import pytest

from repro.core import AttackConfig
from repro.core.model import SplitNet
from repro.nn import Conv2D, conv_output_size
from repro.nn.conv_utils import (
    _col2im_general,
    _im2col_general,
    images_per_block,
    pad_input,
    unpad_gradient,
)


def window_view(xp, kernel, stride, out_h, out_w):
    """The row-major (N, out_h, out_w, C, k, k) window view that the
    blocked mode used to copy its cols rows from."""
    n, c = xp.shape[0], xp.shape[1]
    sn, sc, sh, sw = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, out_h, out_w, c, kernel, kernel),
        strides=(sn, sh * stride, sw * stride, sc, sh, sw),
        writeable=False,
    )


def stride1_convs(config, layer):
    """(in_channels, out_channels, input size) of every stride-1 conv
    in the tower."""
    net = SplitNet(config, layer)
    size, found = config.image_size, []
    for module in net.tower.modules:
        if not isinstance(module, Conv2D):
            continue
        if module.stride == 1:
            found.append((module.in_channels, module.out_channels, size))
        size = conv_output_size(size, module.kernel, module.stride)
    return found


CASES = [
    pytest.param(name, layer, c_in, c_out, size,
                 id=f"{name}-M{layer}-{c_in}x{c_out}@{size}")
    for name, config in (("benchmark", AttackConfig.benchmark()),
                         ("paper", AttackConfig.paper()))
    for layer in (1, 3)
    for c_in, c_out, size in sorted(set(stride1_convs(config, layer)))
]


def row_major_oracle(x, weight, bias, g, kernel=3, stride=1):
    """One row-major block: output, weight grad (accumulated onto a
    zero ``Parameter.grad`` as ``Conv2D.backward`` does), input grad."""
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride)
    out_w = conv_output_size(w, kernel, stride)
    xp, padded_shape = pad_input(x, kernel, stride)
    cols = np.ascontiguousarray(
        window_view(xp, kernel, stride, out_h, out_w)
    ).reshape(n * out_h * out_w, c * kernel * kernel)
    np.testing.assert_array_equal(cols, _im2col_general(x, kernel, stride)[0])
    y = (cols @ weight + bias).reshape(n, out_h, out_w, -1)
    g2d = g.transpose(0, 2, 3, 1).reshape(-1, weight.shape[1])
    wg = np.zeros_like(weight)
    wg += cols.T @ g2d
    grad_padded = _col2im_general(
        g2d @ weight.T, padded_shape, out_h, out_w, kernel, stride
    )
    gx = unpad_gradient(grad_padded, (h, w), kernel, stride)
    return y.transpose(0, 3, 1, 2), np.zeros_like(weight) + wg, gx


def assert_bitwise(got, want):
    got = np.ascontiguousarray(got)
    want = np.ascontiguousarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))


@pytest.mark.parametrize("config_name, layer, c_in, c_out, size", CASES)
def test_kmajor_bitwise_equal_to_row_major(config_name, layer, c_in, c_out, size):
    ipb = images_per_block(size * size, c_in * 9)
    rng = np.random.default_rng(size * 1000 + c_in)
    conv = Conv2D(c_in, c_out, kernel=3, stride=1, rng=rng)
    conv.bias.value[...] = rng.standard_normal(c_out).astype(np.float32)
    for n in range(1, ipb + 1):
        x = rng.standard_normal((n, c_in, size, size)).astype(np.float32)
        g = rng.standard_normal((n, c_out, size, size)).astype(np.float32)
        conv.weight.grad = None
        y = conv(x)
        gx = conv.backward(g)
        want_y, want_wg, want_gx = row_major_oracle(
            x, conv.weight.value, conv.bias.value, g
        )
        assert_bitwise(y, want_y)
        assert_bitwise(conv.weight.grad, want_wg)
        assert_bitwise(gx, want_gx)
