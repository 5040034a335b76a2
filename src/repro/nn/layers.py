"""Core neural-network layers: Dense, Conv2D, LeakyReLU, pooling.

Every layer follows the same contract:

* ``forward(x)`` caches whatever the backward pass needs — in
  training mode only: in eval mode the layers with parameters or a
  mask keep no activations, and their ``backward`` raises;
* ``backward(grad_out)`` accumulates parameter gradients in-place and
  returns the gradient with respect to the layer input.

The paper's network (Fig. 4 / Table 2) uses exactly these building
blocks: 3x3 convolutions with occasional stride 3, fully connected
layers, and LeakyReLU ``y = max(0.01 x, x)`` activations.
"""

from __future__ import annotations

import numpy as np

from .conv_utils import (
    col2im,
    conv_backward_blocks,
    conv_forward_blocks,
    conv_output_size,
    im2col,
    images_per_block,
    kmajor_window_view,
    pad_input,
    unpad_gradient,
)
from .module import Module, Parameter

DEFAULT_DTYPE = np.float32


def he_normal(
    rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, dtype=DEFAULT_DTYPE
) -> np.ndarray:
    """He-normal initialisation, the standard choice for ReLU-family nets."""
    std = np.sqrt(2.0 / max(fan_in, 1))
    return (rng.standard_normal(shape) * std).astype(dtype)


class Dense(Module):
    """Fully connected layer ``y = x W + b`` on the last axis.

    Accepts inputs of any leading shape ``(..., in_features)`` — the
    network applies the same fc stack to all ``n`` candidate VPPs of a
    sink fragment at once.  In eval mode ``forward`` keeps no reference
    to its input and ``backward`` raises.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator | None = None,
        dtype=DEFAULT_DTYPE,
        name: str = "fc",
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            he_normal(rng, (in_features, out_features), in_features, dtype),
            name=f"{name}.weight",
        )
        self.bias = Parameter(np.zeros(out_features, dtype=dtype), name=f"{name}.bias")
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"Dense expected last dim {self.in_features}, got {x.shape}"
            )
        self._x = x if self.training else None
        return x @ self.weight.value + self.bias.value

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x = self._x
        if x is None:
            raise RuntimeError("backward called before forward")
        x2d = x.reshape(-1, self.in_features)
        g2d = grad.reshape(-1, self.out_features)
        self.weight.grad += x2d.T @ g2d
        self.bias.grad += g2d.sum(axis=0)
        self._x = None
        return (g2d @ self.weight.value.T).reshape(x.shape)


class LeakyReLU(Module):
    """``y = max(alpha * x, x)`` with the paper's alpha = 0.01.

    Both modes take ``np.maximum(x, alpha * x)``, which for
    0 < alpha < 1 is bitwise equal to the masked
    ``np.where(x > 0, x, alpha * x)`` at a fraction of its cost.  Eval
    mode stores nothing; training also keeps the ``x > 0`` mask.

    ``backward`` multiplies the gradient by a slope of 1 or alpha read
    off the mask, ``np.maximum(mask, alpha)``, which equals
    ``np.where(mask, grad, alpha * grad)``: ``grad * 1`` is ``grad``.

    Both equalities hold bit for bit on every value that arithmetic can
    produce (signed zeros, quiet NaNs, infinities, denormals).  Only
    signalling NaNs differ: ``np.maximum`` passes one through where
    ``alpha * x`` quiets it, and the slope multiply quiets one that
    ``np.where`` passes through
    (``tests/nn/test_train_backward_oracle.py``).
    """

    def __init__(self, alpha: float = 0.01):
        super().__init__()
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"LeakyReLU alpha must be in (0, 1), got {alpha}")
        self.alpha = alpha
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0 if self.training else None
        out = self.alpha * x
        return np.maximum(x, out, out=out)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        slope = np.maximum(self._mask, self.alpha, dtype=grad.dtype)
        self._mask = None
        return np.multiply(grad, slope, out=slope)


class Conv2D(Module):
    """3x3-style convolution with SAME padding, NCHW layout, via im2col.

    ``stride == kernel`` keeps the non-overlapping single-gemm fast
    path.  ``stride < kernel`` runs the matmul over whole-image blocks
    of K-major cols (see ``conv_utils``), gathering each cache-sized
    block from the padded input's window view as it goes.
    ``matmul_mode="reference"`` materialises the whole K-major cols
    array up front instead; it shares the block partition and issues
    identical gemms, so it is bit-exact with the default on any BLAS,
    and exists only as the test oracle.

    In eval mode ``forward`` keeps no activations and ``backward``
    raises.  ``backward`` returns its input gradient as an NCHW view of
    channels-last memory, so the next layer's ``(rows, C)`` gradient
    needs no copy.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int = 3,
        stride: int = 1,
        rng: np.random.Generator | None = None,
        dtype=DEFAULT_DTYPE,
        name: str = "conv",
        matmul_mode: str = "blocked",
    ):
        super().__init__()
        if matmul_mode not in ("blocked", "reference"):
            raise ValueError(f"unknown conv matmul mode {matmul_mode!r}")
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.matmul_mode = matmul_mode
        fan_in = in_channels * kernel * kernel
        self.weight = Parameter(
            he_normal(rng, (fan_in, out_channels), fan_in, dtype),
            name=f"{name}.weight",
        )
        self.bias = Parameter(np.zeros(out_channels, dtype=dtype), name=f"{name}.bias")
        self._cache: tuple | None = None

    def _get_block(self, store: tuple, out_h: int, out_w: int):
        """Block accessor returning contiguous K-major cols, over either
        the materialised array ("reference") or the padded input's
        window view ("blocked")."""
        kind, data = store
        rows_per_image = out_h * out_w
        patch_len = self.in_channels * self.kernel * self.kernel
        if kind == "cols":
            def get_block(a: int, b: int) -> np.ndarray:
                return np.ascontiguousarray(
                    data[:, a * rows_per_image : b * rows_per_image]
                )
        else:
            windows = kmajor_window_view(
                data, self.kernel, self.stride, out_h, out_w
            )

            def get_block(a: int, b: int) -> np.ndarray:
                block = np.ascontiguousarray(windows[:, :, :, a:b])
                return block.reshape(patch_len, (b - a) * rows_per_image)
        return get_block

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2D expected (N,{self.in_channels},H,W), got {x.shape}"
            )
        n, _, h, w = x.shape
        out_h = conv_output_size(h, self.kernel, self.stride)
        out_w = conv_output_size(w, self.kernel, self.stride)
        if self.stride == self.kernel:
            cols, padded_shape = im2col(x, self.kernel, self.stride)
            out = cols @ self.weight.value + self.bias.value
            cache = ("nonoverlap", cols, padded_shape, (h, w))
        else:
            patch_len = self.in_channels * self.kernel * self.kernel
            xp, padded_shape = pad_input(x, self.kernel, self.stride)
            if self.matmul_mode == "reference":
                windows = kmajor_window_view(
                    xp, self.kernel, self.stride, out_h, out_w
                )
                cols_t = np.ascontiguousarray(windows).reshape(patch_len, -1)
                store = ("cols", cols_t)
            else:
                store = ("xp", xp)
            ipb = images_per_block(out_h * out_w, patch_len)
            out = conv_forward_blocks(
                self._get_block(store, out_h, out_w),
                n, ipb, self.weight.value, self.bias.value,
            )
            cache = ("general", store, padded_shape, (h, w))
        self._cache = cache if self.training else None
        return out.reshape(n, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)

    def backward(
        self, grad: np.ndarray, input_grad: bool = True
    ) -> np.ndarray | None:
        """Accumulate the weight and bias gradients and return the input
        gradient.

        With ``input_grad=False`` (a layer whose input is data, not
        activations: the conv tower's first layer) d loss / d input is
        never read, so its ``g @ W.T`` gemm and fold are skipped and
        None is returned; the parameter gradients are the same bits.
        """
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        kind, store, padded_shape, orig_hw = self._cache
        self._cache = None
        g2d = grad.transpose(0, 2, 3, 1).reshape(-1, self.out_channels)
        if kind == "nonoverlap":
            cols = store
            self.weight.grad += cols.T @ g2d
            self.bias.grad += g2d.sum(axis=0)
            if not input_grad:
                return None
            grad_cols = g2d @ self.weight.value.T
            return col2im(grad_cols, padded_shape, orig_hw, self.kernel, self.stride)
        h, w = orig_hw
        out_h = conv_output_size(h, self.kernel, self.stride)
        out_w = conv_output_size(w, self.kernel, self.stride)
        ipb = images_per_block(
            out_h * out_w, self.in_channels * self.kernel * self.kernel
        )
        wg, bg, grad_padded = conv_backward_blocks(
            self._get_block(store, out_h, out_w),
            padded_shape[0], out_h * out_w, ipb,
            self.weight.value, g2d, padded_shape,
            out_h, out_w, self.kernel, self.stride, input_grad,
        )
        self.weight.grad += wg
        self.bias.grad += bg
        if grad_padded is None:
            return None
        return unpad_gradient(grad_padded, orig_hw, self.kernel, self.stride)


class GlobalAvgPool(Module):
    """Average over the spatial dims: (N, C, H, W) -> (N, C).

    Bridges the conv stack's final 4x4x128 feature map to the 128-wide
    fully connected image head (fc3 in Table 2).
    """

    def __init__(self):
        super().__init__()
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        n, c, h, w = self._shape
        self._shape = None
        return np.broadcast_to(
            grad[:, :, None, None] / (h * w), (n, c, h, w)
        ).astype(grad.dtype, copy=True)


class Flatten(Module):
    """(N, ...) -> (N, prod(...))."""

    def __init__(self):
        super().__init__()
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        shape = self._shape
        self._shape = None
        return grad.reshape(shape)


class Sequential(Module):
    """Chain of modules executed (and back-propagated) in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.modules = list(modules)

    def append(self, module: Module) -> None:
        self.modules.append(module)

    def forward(self, x):
        for module in self.modules:
            x = module(x)
        return x

    def backward(self, grad):
        for module in reversed(self.modules):
            grad = module.backward(grad)
        return grad

    def __len__(self) -> int:
        return len(self.modules)

    def __getitem__(self, idx: int) -> Module:
        return self.modules[idx]
