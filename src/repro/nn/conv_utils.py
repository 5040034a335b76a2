"""im2col / col2im helpers for convolution layers.

Implemented with ``numpy.lib.stride_tricks`` so the forward im2col is a
view-based gather followed by one big matmul — the only way a pure
NumPy convolution is fast enough to train the paper's 12-conv-layer
image branch on a CPU.

The ``stride == kernel`` case (the Table 2 down-sampling convolutions,
kernel 3 / stride 3) takes a non-overlapping fast path: patches tile
the padded image exactly, so the gather is a plain ``reshape`` +
``transpose`` — no strided window view, no padding copy when the size
divides evenly, and the backward scatter-add collapses to one reshape
because no two patches touch the same pixel.  Both paths are bit-exact
with each other (see ``tests/nn/test_conv_utils.py``).  That reshape
copies channels-last and returns an NCHW view, so the layer below gets
a gradient whose ``(rows, C)`` matrix is a free reshape.

The ``stride < kernel`` case (two thirds of the Table 2 tower) runs the
conv matmul over blocks of whole images, sized by
:func:`images_per_block` to stay cache-resident, and never holds the
full ``kernel**2``-times-larger cols copy.  Each block is gathered
**K-major**: the window view :func:`kmajor_window_view` has shape
(C, k, k, N, out_h, out_w), so a block copies into a contiguous
``(C*k*k, rows)`` array ``colsT`` whose inner runs are ``out_w``
contiguous floats instead of ``k``.  The gemm takes ``colsT.T`` — the
same logical (rows, C*k*k) matrix, handed to BLAS transposed — and the
weight gradient is ``colsT @ g``.  The input gradient keeps the
row-major ``g @ W.T`` (a K-major fold needs a transposing copy of that
gradient, which costs more than it saves at the benchmark config's
sizes), and :func:`fold_nhwc` scatter-adds it into a channels-last
buffer, returned as an NCHW view, whose inner axis is contiguous where
the NCHW fold :func:`_col2im_general` (the test oracle) strides
``C*k*k`` floats.  :func:`conv_backward_blocks` with
``input_grad=False`` runs neither that gemm nor the fold.

Four kinds of equality hold, and they rest on different grounds:

* **Blocked vs reference mode: structural, on any BLAS.**  The
  ``"reference"`` mode (the test oracle) materialises the full K-major
  array up front; both modes partition the rows with the same
  :func:`images_per_block` schedule and issue identical per-block gemm
  calls (same shapes, layouts, operand values and accumulation order).
  A single full gemm over a differently-sized operand is *not*
  bit-stable on real BLAS builds (kernel dispatch depends on the
  matrix shape), which is why the reference mode shares the block
  schedule instead of calling one big matmul.
* **K-major vs the row-major layout: measured, not structural.**  A
  gemm given a transposed operand packs it through a different copy
  routine, and small-matrix kernels may accumulate in a different
  order.  On OpenBLAS 0.3.31's native AVX-512 (SkylakeX) kernels and
  under ``OPENBLAS_CORETYPE=Haswell`` (AVX2), forward outputs, weight
  gradients and input gradients are bitwise equal to the row-major
  gather (:func:`_im2col_general` rows, ``cols @ W``, ``cols.T @ g``,
  :func:`_col2im_general`) for every stride-1 layer of the
  ``AttackConfig.benchmark()`` and ``paper()`` towers at M1 and M3, at
  every block size from one image to :func:`images_per_block`
  (``tests/nn/test_conv_kmajor_oracle.py``), and the committed M1/M3
  weights embed c432 bitwise as before
  (``tests/core/test_eval_parity.py``).  The test also passes under
  the Sandybridge, Nehalem and Prescott kernels.  The ``tiny()``
  config's small convs (4-, 8- and 12-channel inputs) are *not*
  bitwise with the old layout on the AVX-512 kernels; no committed
  artifact uses that config.  One detail is load-bearing: the weight
  gradient copies a one-image ``g`` (an F-ordered view) contiguous,
  without which it differs on AVX-512.  The form ``(W @ g.T).T`` for
  the input gradient differs under Haswell, and is not used.
* **Channels-last vs NCHW input-gradient fold: structural.**  Each
  pixel receives the same float adds in the same ``(ki, kj)`` order,
  and for a batch of two or more images every gemm operand and bias
  sum sees the same values in the same layout as before
  (``tests/nn/test_train_backward_oracle.py``).  A one-image batch
  used to pass an F-ordered ``(rows, C)`` view to ``g.sum(axis=0)``,
  which sums in another order, so its conv bias gradients now differ
  in the last bits.  Training never builds a one-image tower batch (a
  labelled group renders its sink and a true source).
* **Pool vs inline: structural.**  :func:`conv_forward_blocks` and
  :func:`conv_backward_blocks` run their blocks on the per-process
  block pool (:func:`repro.nn.blocks.map_blocks`) instead of a serial
  loop.  Each block issues the same gemms on the same operands; the
  forward parts are concatenated, and the weight and bias partials
  added onto zeros, in block order, and each block folds its input
  gradient into its own disjoint slice.  No float operation changes
  operands or order (``tests/nn/test_block_pool_oracle.py``).

Layout convention is NCHW throughout.
"""

from __future__ import annotations

import numpy as np

from .blocks import map_blocks

# Target elements per cols block for the blocked stride<kernel matmul:
# 256k f32 elements = 1 MiB, small enough to stay cache-resident while
# the gemm consumes it, large enough to amortise the per-block call.
_BLOCK_TARGET_ELEMS = 1 << 18


def same_padding(in_size: int, kernel: int, stride: int) -> tuple[int, int]:
    """TensorFlow-style SAME padding (before, after) for one dimension.

    Produces ``out = ceil(in / stride)``, which yields exactly the
    99 -> 33 -> 11 -> 4 progression of Table 2 for kernel 3 / stride 3.
    """
    out_size = -(-in_size // stride)
    total = max((out_size - 1) * stride + kernel - in_size, 0)
    before = total // 2
    return before, total - before


def conv_output_size(in_size: int, kernel: int, stride: int) -> int:
    return -(-in_size // stride)


def _im2col_general(
    x: np.ndarray, kernel: int, stride: int
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Overlapping-window im2col via a strided view (any stride)."""
    n, c, h, w = x.shape
    xp, (_, _, hp, wp) = pad_input(x, kernel, stride)
    out_h = conv_output_size(h, kernel, stride)
    out_w = conv_output_size(w, kernel, stride)

    sn, sc, sh, sw = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, c, out_h, out_w, kernel, kernel),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )
    # (N, out_h, out_w, C, kh, kw) -> rows are output positions
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(
        n * out_h * out_w, c * kernel * kernel
    )
    return np.ascontiguousarray(cols), (n, c, hp, wp)


def _im2col_nonoverlap(
    x: np.ndarray, kernel: int
) -> tuple[np.ndarray, tuple[int, ...]]:
    """stride == kernel: patches tile the padded image, so the window
    gather is a pure reshape — and when the size divides evenly (the
    hot 99 -> 33 and 33 -> 11 stages) the padding copy is skipped too."""
    n, c = x.shape[0], x.shape[1]
    xp, (_, _, hp, wp) = pad_input(x, kernel, kernel)
    out_h = hp // kernel
    out_w = wp // kernel
    cols = (
        xp.reshape(n, c, out_h, kernel, out_w, kernel)
        .transpose(0, 2, 4, 1, 3, 5)
        .reshape(n * out_h * out_w, c * kernel * kernel)
    )
    return np.ascontiguousarray(cols), (n, c, hp, wp)


def im2col(
    x: np.ndarray, kernel: int, stride: int
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Unfold ``x`` (N, C, H, W) into patch columns.

    Returns ``(cols, padded_shape)`` where ``cols`` has shape
    (N * out_h * out_w, C * kernel * kernel).  ``padded_shape`` is needed
    by :func:`col2im` to fold gradients back.
    """
    if stride == kernel:
        return _im2col_nonoverlap(x, kernel)
    return _im2col_general(x, kernel, stride)


def fold_nhwc(
    cols: np.ndarray,
    out: np.ndarray,
    out_h: int,
    out_w: int,
    kernel: int,
    stride: int,
) -> None:
    """Scatter-add patch columns into a channels-last ``out`` (N, Hp, Wp, C).

    The same ``(ki, kj)`` slice-adds as :func:`_col2im_general`, so
    every pixel receives the same float adds in the same order; only
    the destination layout differs, and its inner axis (channels) is
    contiguous where the NCHW fold's is a ``C*k*k``-float stride.
    """
    n, _, _, c = out.shape
    patches = cols.reshape(n, out_h, out_w, c, kernel, kernel)
    for ki in range(kernel):
        for kj in range(kernel):
            out[
                :,
                ki : ki + out_h * stride : stride,
                kj : kj + out_w * stride : stride,
            ] += patches[..., ki, kj]


def _col2im_general(
    cols: np.ndarray,
    padded_shape: tuple[int, ...],
    out_h: int,
    out_w: int,
    kernel: int,
    stride: int,
) -> np.ndarray:
    """NCHW scatter-add fold: the test oracle of :func:`fold_nhwc`."""
    n, c, hp, wp = padded_shape
    grad_padded = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    patches = cols.reshape(n, out_h, out_w, c, kernel, kernel).transpose(
        0, 3, 1, 2, 4, 5
    )
    # Scatter-add each kernel offset in one vectorised slice assignment.
    for ki in range(kernel):
        for kj in range(kernel):
            grad_padded[
                :,
                :,
                ki : ki + out_h * stride : stride,
                kj : kj + out_w * stride : stride,
            ] += patches[:, :, :, :, ki, kj]
    return grad_padded


def _col2im_nonoverlap(
    cols: np.ndarray,
    padded_shape: tuple[int, ...],
    out_h: int,
    out_w: int,
    kernel: int,
) -> np.ndarray:
    """stride == kernel: every padded pixel receives exactly one patch
    value, so the k*k scatter-add loop collapses to one reshape.  The
    copy is channels-last, returned as an NCHW view, like
    :func:`fold_nhwc`'s."""
    n, c, hp, wp = padded_shape
    return (
        cols.reshape(n, out_h, out_w, c, kernel, kernel)
        .transpose(0, 1, 4, 2, 5, 3)
        .reshape(n, hp, wp, c)
        .transpose(0, 3, 1, 2)
    )


def pad_input(
    x: np.ndarray, kernel: int, stride: int
) -> tuple[np.ndarray, tuple[int, ...]]:
    """SAME-pad ``x`` (N, C, H, W); returns ``(xp, padded_shape)``.

    No copy is made when the padding is zero on every side.  Otherwise
    the result is a C-contiguous zero array with ``x`` copied into its
    interior: the values and layout of ``np.pad(..., mode="constant")``
    without its per-side fill passes.
    """
    n, c, h, w = x.shape
    top, bottom = same_padding(h, kernel, stride)
    left, right = same_padding(w, kernel, stride)
    if top == bottom == left == right == 0:
        return x, x.shape
    xp = np.zeros((n, c, top + h + bottom, left + w + right), dtype=x.dtype)
    xp[:, :, top : top + h, left : left + w] = x
    return xp, xp.shape


def kmajor_window_view(
    xp: np.ndarray, kernel: int, stride: int, out_h: int, out_w: int
) -> np.ndarray:
    """Read-only (C, k, k, N, out_h, out_w) window view over padded input.

    Axis 3 is whole images, so ``view[:, :, :, a:b]`` copied contiguous
    and reshaped to ``(C*k*k, rows)`` is the transpose of rows
    ``[a*out_h*out_w, b*out_h*out_w)`` of :func:`im2col`'s cols.
    """
    n, c = xp.shape[0], xp.shape[1]
    sn, sc, sh, sw = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp,
        shape=(c, kernel, kernel, n, out_h, out_w),
        strides=(sc, sh, sw, sn, sh * stride, sw * stride),
        writeable=False,
    )


def images_per_block(rows_per_image: int, patch_len: int) -> int:
    """Whole images per cols block for the stride<kernel matmul.

    Derived purely from the logical shape (never from dtype, mode or
    runtime state) so the blocked and reference execution modes always
    agree on the partition — the property their bit-exactness rests on.
    """
    target_rows = max(1, _BLOCK_TARGET_ELEMS // max(1, patch_len))
    return max(1, target_rows // max(1, rows_per_image))


def conv_forward_blocks(
    get_block, n_images: int, ipb: int, weight: np.ndarray, bias: np.ndarray
) -> np.ndarray:
    """Forward gemm over image blocks: ``colsT_block.T @ weight + bias``.

    ``get_block(a, b)`` must return the contiguous K-major cols
    ``(C*k*k, rows)`` for images ``[a, b)``.  Both execution modes call
    this with the same ``ipb``, so every gemm has identical shape,
    layout and operand values in each mode.  The blocks run on
    :func:`map_blocks`; their parts are concatenated in block order.
    """
    if n_images == 0:
        return np.zeros((0, weight.shape[1]), dtype=weight.dtype)
    parts = map_blocks(
        lambda a, b: get_block(a, b).T @ weight + bias, n_images, ipb
    )
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)


def conv_backward_blocks(
    get_block,
    n_images: int,
    rows_per_image: int,
    ipb: int,
    weight: np.ndarray,
    g2d: np.ndarray,
    padded_shape: tuple[int, ...],
    out_h: int,
    out_w: int,
    kernel: int,
    stride: int,
    input_grad: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Backward over the same block partition as the forward.

    Returns ``(weight_grad, bias_grad, grad_padded)``.  The blocks run
    on :func:`map_blocks` and return their partial sums, which the
    caller adds in block order, so the reference and blocked modes,
    and the pool and a serial loop, produce identical bits here too.
    ``grad_padded`` is an NCHW view of a channels-last buffer that each
    block's ``g_b @ W.T`` is folded into (:func:`fold_nhwc`), its own
    disjoint ``[a, b)`` slice, or None when ``input_grad`` is false and
    neither the gemm nor the fold runs.
    """
    _, c, hp, wp = padded_shape
    grad_nhwc = (
        np.zeros((n_images, hp, wp, c), dtype=g2d.dtype) if input_grad else None
    )

    def block(a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
        g_b = g2d[a * rows_per_image : b * rows_per_image]
        # A one-image g2d is an F-ordered view; with it the K-major
        # weight gradient is not bitwise the row-major one on AVX-512.
        wg_b = get_block(a, b) @ np.ascontiguousarray(g_b)
        bg_b = g_b.sum(axis=0)
        if grad_nhwc is not None:
            fold_nhwc(
                g_b @ weight.T, grad_nhwc[a:b], out_h, out_w, kernel, stride
            )
        return wg_b, bg_b

    wg = np.zeros_like(weight)
    bg = np.zeros(weight.shape[1], dtype=weight.dtype)
    for wg_b, bg_b in map_blocks(block, n_images, ipb):
        wg += wg_b
        bg += bg_b
    if grad_nhwc is None:
        return wg, bg, None
    return wg, bg, grad_nhwc.transpose(0, 3, 1, 2)


def unpad_gradient(
    grad_padded: np.ndarray,
    orig_hw: tuple[int, int],
    kernel: int,
    stride: int,
) -> np.ndarray:
    h, w = orig_hw
    pad_h = same_padding(h, kernel, stride)
    pad_w = same_padding(w, kernel, stride)
    return grad_padded[:, :, pad_h[0] : pad_h[0] + h, pad_w[0] : pad_w[0] + w]


def col2im(
    cols: np.ndarray,
    padded_shape: tuple[int, ...],
    orig_hw: tuple[int, int],
    kernel: int,
    stride: int,
) -> np.ndarray:
    """Fold patch-column gradients back to an input gradient (N, C, H, W)."""
    h, w = orig_hw
    out_h = conv_output_size(h, kernel, stride)
    out_w = conv_output_size(w, kernel, stride)
    if stride == kernel:
        grad_padded = _col2im_nonoverlap(
            cols, padded_shape, out_h, out_w, kernel
        )
    else:
        n, c, hp, wp = padded_shape
        grad_nhwc = np.zeros((n, hp, wp, c), dtype=cols.dtype)
        fold_nhwc(cols, grad_nhwc, out_h, out_w, kernel, stride)
        grad_padded = grad_nhwc.transpose(0, 3, 1, 2)
    pad_h = same_padding(h, kernel, stride)
    pad_w = same_padding(w, kernel, stride)
    return grad_padded[:, :, pad_h[0] : pad_h[0] + h, pad_w[0] : pad_w[0] + w]
