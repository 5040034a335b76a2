"""Layer forward semantics and gradient checks."""

import numpy as np
import pytest

from repro.nn import (
    Conv2D,
    Dense,
    Flatten,
    GlobalAvgPool,
    LeakyReLU,
    Sequential,
    check_module_gradients,
)


def rng():
    return np.random.default_rng(42)


class TestDense:
    def test_known_values(self):
        layer = Dense(2, 2, rng=rng())
        layer.weight.value = np.array([[1.0, 2.0], [3.0, 4.0]])
        layer.bias.value = np.array([0.5, -0.5])
        out = layer(np.array([[1.0, 1.0]]))
        np.testing.assert_allclose(out, [[4.5, 5.5]])

    def test_broadcasts_over_leading_dims(self):
        layer = Dense(3, 5, rng=rng())
        x = rng().standard_normal((2, 7, 3))
        out = layer(x)
        assert out.shape == (2, 7, 5)
        np.testing.assert_allclose(
            out[1, 3], layer(x[1, 3][None, :])[0], rtol=1e-6
        )

    def test_rejects_wrong_width(self):
        layer = Dense(3, 5)
        with pytest.raises(ValueError, match="last dim"):
            layer(np.zeros((2, 4)))

    def test_gradcheck_2d(self):
        layer = Dense(4, 3, rng=rng())
        check_module_gradients(layer, rng().standard_normal((5, 4)))

    def test_gradcheck_3d_input(self):
        layer = Dense(3, 2, rng=rng())
        check_module_gradients(layer, rng().standard_normal((2, 4, 3)))

    def test_gradients_accumulate(self):
        layer = Dense(2, 2, rng=rng())
        x = np.ones((1, 2))
        layer(x)
        layer.backward(np.ones((1, 2)))
        first = layer.weight.grad.copy()
        layer(x)
        layer.backward(np.ones((1, 2)))
        np.testing.assert_allclose(layer.weight.grad, 2 * first)


class TestLeakyReLU:
    def test_paper_definition(self):
        act = LeakyReLU()
        x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        np.testing.assert_allclose(act(x), np.maximum(0.01 * x, x))

    def test_negative_slope_in_backward(self):
        act = LeakyReLU(alpha=0.1)
        act(np.array([-1.0, 1.0]))
        grad = act.backward(np.array([1.0, 1.0]))
        np.testing.assert_allclose(grad, [0.1, 1.0])

    def test_gradcheck(self):
        # avoid the kink at 0 by sampling away from it
        x = rng().standard_normal((4, 5))
        x = np.where(np.abs(x) < 0.1, x + 0.2, x)
        check_module_gradients(LeakyReLU(), x)

    @pytest.mark.parametrize("alpha", [0.0, -0.01, 1.0, 1.5])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            LeakyReLU(alpha=alpha)


def masked_leaky_relu(x, alpha):
    """The training-mode form, kept as the oracle of the eval path."""
    return np.where(x > 0, x, alpha * x)


def special_float32():
    info = np.finfo(np.float32)
    tiny = info.smallest_subnormal
    return np.array(
        [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf,
         tiny, -tiny, 3 * tiny, -3 * tiny,
         info.smallest_normal, -info.smallest_normal,
         info.smallest_normal / 2, -info.smallest_normal / 2,
         info.max, -info.max, 1.0, -1.0],
        dtype=np.float32,
    )


class TestLeakyReLUEval:
    """Eval mode takes ``np.maximum(x, alpha * x)``: bitwise the masked
    oracle, with no mask kept."""

    @pytest.mark.parametrize("alpha", [0.01, 0.1, 0.2])
    def test_special_values_bitwise(self, alpha):
        x = special_float32()
        got = LeakyReLU(alpha).eval()(x)
        want = masked_leaky_relu(x, alpha)
        assert got.dtype == want.dtype == np.float32
        np.testing.assert_array_equal(
            got.view(np.uint32), want.view(np.uint32)
        )

    @pytest.mark.parametrize("alpha", [0.01, 0.1, 0.2])
    def test_normal_draws_bitwise(self, alpha):
        x = rng().standard_normal(10**6).astype(np.float32)
        got = LeakyReLU(alpha).eval()(x)
        np.testing.assert_array_equal(
            got.view(np.uint32), masked_leaky_relu(x, alpha).view(np.uint32)
        )

    def test_strided_view_bitwise_and_input_untouched(self):
        # The conv tower hands LeakyReLU a transposed (NHWC -> NCHW) view.
        x = rng().standard_normal((2, 5, 5, 3)).astype(np.float32)
        view = x.transpose(0, 3, 1, 2)
        before = x.copy()
        got = LeakyReLU().eval()(view)
        np.testing.assert_array_equal(
            got.view(np.uint32),
            masked_leaky_relu(view, 0.01).view(np.uint32),
        )
        np.testing.assert_array_equal(x, before)

    def test_eval_keeps_no_mask_and_backward_raises(self):
        act = LeakyReLU()
        act(np.array([-1.0, 1.0], dtype=np.float32))
        assert act._mask is not None  # training mode keeps it
        act.eval()
        act(np.array([-1.0, 1.0], dtype=np.float32))
        assert act._mask is None
        with pytest.raises(RuntimeError, match="before forward"):
            act.backward(np.ones(2, dtype=np.float32))

    def test_train_mode_unchanged(self):
        x = special_float32()
        act = LeakyReLU(alpha=0.1)
        got = act(x)
        np.testing.assert_array_equal(act._mask, x > 0)
        np.testing.assert_array_equal(
            got.view(np.uint32), masked_leaky_relu(x, 0.1).view(np.uint32)
        )


class TestConv2D:
    def test_identity_kernel(self):
        conv = Conv2D(1, 1, kernel=3, stride=1, rng=rng())
        weight = np.zeros((9, 1))
        weight[4, 0] = 1.0  # centre tap
        conv.weight.value = weight
        conv.bias.value = np.zeros(1)
        x = rng().standard_normal((1, 1, 5, 5))
        np.testing.assert_allclose(conv(x), x, atol=1e-12)

    def test_output_shape_stride3(self):
        conv = Conv2D(2, 7, kernel=3, stride=3, rng=rng())
        out = conv(np.zeros((4, 2, 11, 11), dtype=np.float32))
        assert out.shape == (4, 7, 4, 4)

    def test_rejects_wrong_channels(self):
        conv = Conv2D(3, 4)
        with pytest.raises(ValueError, match="expected"):
            conv(np.zeros((1, 2, 5, 5)))

    def test_gradcheck_stride1(self):
        conv = Conv2D(2, 3, kernel=3, stride=1, rng=rng())
        check_module_gradients(conv, rng().standard_normal((2, 2, 5, 4)))

    def test_gradcheck_stride3(self):
        conv = Conv2D(2, 2, kernel=3, stride=3, rng=rng())
        check_module_gradients(conv, rng().standard_normal((1, 2, 7, 7)))

    def test_bias_applied_everywhere(self):
        conv = Conv2D(1, 1, rng=rng())
        conv.weight.value = np.zeros((9, 1))
        conv.bias.value = np.array([3.5])
        out = conv(np.zeros((1, 1, 4, 4)))
        np.testing.assert_allclose(out, 3.5)


class TestEvalKeepsNoActivations:
    """In eval mode the layers with parameters cache nothing, so a
    shared inference model holds only its weights."""

    @pytest.mark.parametrize("make, shape", [
        (lambda: Dense(3, 4, rng=rng()), (2, 5, 3)),
        (lambda: Conv2D(2, 3, kernel=3, stride=1, rng=rng()), (2, 2, 7, 7)),
        (lambda: Conv2D(2, 3, kernel=3, stride=3, rng=rng()), (2, 2, 7, 7)),
    ], ids=["dense", "conv-stride1", "conv-stride3"])
    def test_eval_forward_stores_nothing_and_backward_raises(self, make, shape):
        layer = make()
        x = rng().standard_normal(shape).astype(np.float32)
        want = layer(x)
        grad = np.ones_like(want)
        layer.eval()
        got = layer(x)
        np.testing.assert_array_equal(got, want)
        assert not any(
            isinstance(v, (np.ndarray, tuple)) for v in vars(layer).values()
        )
        with pytest.raises(RuntimeError, match="before forward"):
            layer.backward(grad)
        layer.train()
        np.testing.assert_array_equal(layer(x), want)
        assert layer.backward(grad).shape == x.shape


class TestPoolingAndFlatten:
    def test_global_avg_pool_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = GlobalAvgPool()(x)
        np.testing.assert_allclose(out, [[7.5]])

    def test_global_avg_pool_gradcheck(self):
        check_module_gradients(GlobalAvgPool(), rng().standard_normal((2, 3, 4, 4)))

    def test_flatten_roundtrip_shapes(self):
        flat = Flatten()
        x = rng().standard_normal((3, 2, 4))
        out = flat(x)
        assert out.shape == (3, 8)
        grad = flat.backward(out)
        assert grad.shape == x.shape


class TestSequential:
    def test_composes(self):
        net = Sequential(Dense(3, 4, rng=rng()), LeakyReLU(), Dense(4, 2, rng=rng()))
        out = net(rng().standard_normal((5, 3)))
        assert out.shape == (5, 2)

    def test_gradcheck_full_chain(self):
        net = Sequential(
            Conv2D(1, 2, stride=1, rng=rng()),
            LeakyReLU(),
            GlobalAvgPool(),
            Dense(2, 3, rng=rng()),
        )
        x = rng().standard_normal((2, 1, 4, 4))
        x = np.where(np.abs(x) < 0.05, x + 0.1, x)
        check_module_gradients(net, x, atol=1e-5)

    def test_append_and_index(self):
        net = Sequential(Dense(2, 2))
        net.append(LeakyReLU())
        assert len(net) == 2
        assert isinstance(net[1], LeakyReLU)
