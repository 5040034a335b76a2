"""Tests for parameter traversal, mode switching and serialisation."""

import numpy as np
import pytest

from repro.nn import Dense, LeakyReLU, Module, Parameter, ResidualBlock, Sequential


def make_net(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential(
        Dense(4, 8, rng=rng, name="a"),
        LeakyReLU(),
        ResidualBlock(8, n_layers=2, rng=rng, name="r"),
        Dense(8, 1, rng=rng, name="b"),
    )


class TestParameter:
    def test_grad_starts_zero(self):
        p = Parameter(np.ones((2, 3)))
        assert p.grad.shape == (2, 3)
        assert np.all(p.grad == 0)

    def test_zero_grad_resets(self):
        p = Parameter(np.ones(3))
        p.grad += 5.0
        p.zero_grad()
        assert np.all(p.grad == 0)

    def test_released_grad_comes_back_zeroed(self):
        p = Parameter(np.ones((2, 3), dtype=np.float32))
        p.grad += 5.0
        p.grad = None
        p.zero_grad()
        assert p._grad is None  # zero_grad allocates nothing
        assert p.grad.dtype == np.float32 and np.all(p.grad == 0)

    def test_load_drops_gradients(self):
        net = make_net()
        for param in net.parameters():
            param.grad += 1.0
        net.load_state_dict(make_net(seed=1).state_dict())
        assert all(param._grad is None for param in net.parameters())
        assert all(np.all(param.grad == 0) for param in net.parameters())

    def test_size_and_shape(self):
        p = Parameter(np.zeros((3, 4)))
        assert p.size == 12
        assert p.shape == (3, 4)


class TestTraversal:
    def test_collects_nested_parameters(self):
        net = make_net()
        params = net.parameters()
        # a: W+b, residual 2 fc: 2*(W+b), b: W+b  -> 8 tensors
        assert len(params) == 8

    def test_no_duplicates_for_shared_modules(self):
        rng = np.random.default_rng(0)
        shared = Dense(4, 4, rng=rng)
        net = Sequential(shared, LeakyReLU(), shared)
        assert len(net.parameters()) == 2

    def test_num_parameters_counts_scalars(self):
        net = Sequential(Dense(4, 8))
        assert net.num_parameters() == 4 * 8 + 8

    def test_zero_grad_clears_all(self):
        net = make_net()
        for p in net.parameters():
            p.grad += 1.0
        net.zero_grad()
        assert all(np.all(p.grad == 0) for p in net.parameters())

    def test_parameters_in_dict_attributes(self):
        class WithDict(Module):
            def __init__(self):
                super().__init__()
                self.heads = {"x": Dense(2, 2), "y": Dense(2, 2)}

        assert len(WithDict().parameters()) == 4


class TestModes:
    def test_train_eval_propagates(self):
        net = make_net()
        net.eval()
        assert not net.training
        assert not net[0].training
        net.train()
        assert net[0].training


class TestSerialisation:
    def test_state_dict_roundtrip(self, tmp_path):
        net = make_net(seed=1)
        x = np.random.default_rng(2).standard_normal((5, 4)).astype(np.float32)
        expected = net(x)

        path = tmp_path / "weights.npz"
        net.save(path)

        other = make_net(seed=99)
        assert not np.allclose(other(x), expected)
        other.load(path)
        np.testing.assert_allclose(other(x), expected, rtol=1e-6)

    def test_load_rejects_wrong_count(self):
        net = make_net()
        with pytest.raises(ValueError, match="tensors"):
            net.load_state_dict({"only": np.zeros(3)})

    def test_load_rejects_wrong_shape(self):
        net = make_net()
        state = net.state_dict()
        key = sorted(state)[0]
        state[key] = np.zeros((1, 1))
        with pytest.raises(ValueError, match="shape mismatch"):
            net.load_state_dict(state)
