"""Gated causal convolution stack: field arithmetic, causality, oracle."""

import numpy as np
import pytest

from graphtcn import tensor as T
from graphtcn.errors import ShapeError
from graphtcn.temporal_conv import TemporalConvNet, receptive_field
from graphtcn.tensor import ParameterStore, Tensor

from oracles import conv_stack_oracle


def make_tcn(in_dim=3, channels=4, layers=2, kernel=3, dilations=None, seed=0):
    store = ParameterStore()
    rng = np.random.default_rng(seed)
    dil = dilations or (1,) * layers
    net = TemporalConvNet(store, "tcn", in_dim, channels, layers, kernel, dil, rng)
    return net, store


class TestReceptiveField:
    def test_three_unit_layers_kernel3(self):
        assert receptive_field(3, (1, 1, 1)) == 7

    def test_single_layer_equals_kernel(self):
        for k in (1, 2, 3, 5):
            assert receptive_field(k, (1,)) == k

    def test_dilated_sum(self):
        assert receptive_field(3, (1, 2, 4)) == 15

    def test_default_stack_covers_eight_steps(self):
        assert receptive_field(3, (1, 1, 1, 1)) == 9

    def test_invalid_args(self):
        with pytest.raises(ShapeError):
            receptive_field(0, (1,))
        with pytest.raises(ShapeError):
            receptive_field(3, ())


class TestGatedLayer:
    def test_zero_input_zero_bias_gives_zero(self):
        store = ParameterStore()
        layer = TemporalConvNet(store, "l", 2, 3, 1, 3, (1,), np.random.default_rng(1))
        out = layer.forward(Tensor(np.zeros((2, 5, 2))))
        np.testing.assert_array_equal(out.data, np.zeros((2, 5, 3)))

    def test_closed_filter_suppresses_output(self):
        store = ParameterStore()
        layer = TemporalConvNet(store, "l", 1, 1, 1, 2, (1,), np.random.default_rng(2))
        store["l.l0.filt.W"].data[...] = 0.0
        store["l.l0.filt.b"].data[...] = -200.0
        out = layer.forward(Tensor(np.ones((1, 4, 1))))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-80)

    def test_hand_scalar_evaluation(self):
        # Single channel, T=2, k=2: out[t] = tanh(g) * sigmoid(f) with
        # g = 0.5*x[t-1] + 1.0*x[t] + 0.1, f = -0.25*x[t-1] + 2.0*x[t].
        store = ParameterStore()
        layer = TemporalConvNet(store, "l", 1, 1, 1, 2, (1,), np.random.default_rng(3))
        store["l.l0.gate.W"].data[...] = np.array([[[0.5, 1.0]]])
        store["l.l0.gate.b"].data[...] = 0.1
        store["l.l0.filt.W"].data[...] = np.array([[[-0.25, 2.0]]])
        store["l.l0.filt.b"].data[...] = 0.0
        x = np.array([0.3, -0.7])
        out = layer.forward(Tensor(x.reshape(1, 2, 1))).data.reshape(2)
        g = np.array([1.0 * 0.3 + 0.1, 0.5 * 0.3 + 1.0 * (-0.7) + 0.1])
        f = np.array([2.0 * 0.3, -0.25 * 0.3 + 2.0 * (-0.7)])
        expected = np.tanh(g) / (1.0 + np.exp(-f))
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-15)


class TestFusedLayer:
    """One conv over the stacked gate and filter weights, split in two."""

    def make_layer(self, dilation=2, seed=30):
        store = ParameterStore()
        layer = TemporalConvNet(store, "l", 3, 4, 1, 3, (dilation,), np.random.default_rng(seed))
        rng = np.random.default_rng(seed + 1)
        for name in ("l.l0.gate.b", "l.l0.filt.b"):
            store[name].data[...] = rng.normal(size=4)
        return layer, store

    @pytest.mark.parametrize("dilation", [1, 2, 3])
    def test_equals_two_separate_convs(self, dilation):
        layer, store = self.make_layer(dilation)
        x = np.random.default_rng(31).normal(size=(5, 9, 3))
        gate = T.conv1d_causal(x, store["l.l0.gate.W"], store["l.l0.gate.b"], dilation=dilation)
        filt = T.conv1d_causal(x, store["l.l0.filt.W"], store["l.l0.filt.b"], dilation=dilation)
        expected = np.tanh(gate.data) / (1.0 + np.exp(-filt.data))
        out = layer.forward(Tensor(x)).data
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)

    def test_gradient_with_input_grad(self):
        layer, store = self.make_layer(dilation=2)
        # The draws of the channels-first version, moved to [N, T, C].
        # Fresh [2, 7, 3] draws put some gradient entries so near zero
        # that central differences miss them by over 1e-6 relative, with
        # channels-first code as well.
        store.add("x", np.random.default_rng(32).normal(size=(2, 3, 7)).transpose(0, 2, 1))

        def f(p):
            out = layer.forward(p["x"])
            return T.reduce_mean(T.mul(out, out))

        assert T.finite_difference_check(f, store) < 1e-6

    def test_gradient_without_input_grad(self):
        layer, store = self.make_layer(dilation=2)
        x = Tensor(np.random.default_rng(33).normal(size=(2, 3, 7)).transpose(0, 2, 1))

        def f(p):
            out = layer.forward(x)
            return T.reduce_mean(T.mul(out, out))

        assert T.finite_difference_check(f, store) < 1e-6


class TestStack:
    def test_matches_direct_summation_oracle(self):
        net, store = make_tcn(in_dim=3, channels=4, layers=3, kernel=3, seed=10)
        rng = np.random.default_rng(11)
        h = rng.normal(size=(2, 6, 3))
        out = net.forward(Tensor(h))
        for ped in range(2):
            expected = conv_stack_oracle(h[ped].T, store.state_arrays(), "tcn", 3, (1, 1, 1))
            np.testing.assert_allclose(out.data[ped], expected.T, rtol=0, atol=1e-12)

    def test_dilated_matches_oracle(self):
        net, store = make_tcn(in_dim=2, channels=3, layers=3, kernel=2,
                              dilations=(1, 2, 4), seed=12)
        rng = np.random.default_rng(13)
        h = rng.normal(size=(1, 10, 2))
        out = net.forward(Tensor(h))
        expected = conv_stack_oracle(h[0].T, store.state_arrays(), "tcn", 3, (1, 2, 4))
        np.testing.assert_allclose(out.data[0], expected.T, rtol=0, atol=1e-12)

    def test_identical_pedestrians_identical_outputs(self):
        net, _ = make_tcn(seed=14)
        row = np.random.default_rng(15).normal(size=(1, 6, 3))
        h = np.concatenate([row, row], axis=0)
        out = net.forward(Tensor(h))
        assert (out.data[0] == out.data[1]).all()

    def test_length_preserved(self):
        for t_len in (1, 2, 8):
            net, _ = make_tcn(seed=16)
            out = net.forward(Tensor(np.random.default_rng(17).normal(size=(2, t_len, 3))))
            assert out.shape == (2, t_len, 4)

    @pytest.mark.parametrize("kernel", [2, 3, 5])
    @pytest.mark.parametrize("layers", [1, 2, 3, 4])
    def test_causality_bit_exact(self, kernel, layers):
        net, _ = make_tcn(in_dim=2, channels=3, layers=layers, kernel=kernel,
                          seed=100 * kernel + layers)
        rng = np.random.default_rng(18)
        t_len = 12
        h = rng.normal(size=(1, t_len, 2))
        base = net.forward(Tensor(h)).data
        for t in (0, 5, t_len - 1):
            h2 = h.copy()
            h2[:, t:, :] = rng.normal(size=(1, t_len - t, 2))
            bumped = net.forward(Tensor(h2)).data
            assert (base[:, :t] == bumped[:, :t]).all()

    @pytest.mark.parametrize("kernel,layers", [(2, 1), (3, 2), (5, 3)])
    def test_receptive_field_exact_boundary(self, kernel, layers):
        net, _ = make_tcn(in_dim=1, channels=2, layers=layers, kernel=kernel,
                          seed=19 + kernel + layers)
        field = receptive_field(kernel, (1,) * layers)
        t_len = field + 4
        rng = np.random.default_rng(20)
        h = rng.normal(size=(1, t_len, 1))
        t_out = t_len - 1
        base = net.forward(Tensor(h)).data

        # A bump exactly receptive_field steps back must not reach t_out...
        h_far = h.copy()
        h_far[0, t_out - field, 0] += 1.0
        far = net.forward(Tensor(h_far)).data
        assert (far[0, t_out] == base[0, t_out]).all()

        # ...but one step closer must.
        h_near = h.copy()
        h_near[0, t_out - field + 1, 0] += 1.0
        near = net.forward(Tensor(h_near)).data
        assert (near[0, t_out] != base[0, t_out]).any()

    def test_gradients_flow(self):
        store = ParameterStore()
        rng = np.random.default_rng(21)
        net = TemporalConvNet(store, "tcn", 2, 3, 2, 3, (1, 1), rng)
        h = rng.normal(size=(2, 5, 2))

        def f(p):
            out = net.forward(Tensor(h))
            return T.reduce_mean(T.mul(out, out))

        assert T.finite_difference_check(f, store) < 1e-6

    def test_dilation_length_mismatch(self):
        with pytest.raises(ShapeError):
            make_tcn(layers=2, dilations=(1, 1, 1))

    def test_rejects_input_without_a_pedestrian_axis(self):
        # gated_conv owns the rank check; the stack adds none of its own.
        net, _ = make_tcn()
        with pytest.raises(ShapeError):
            net.forward(Tensor(np.zeros((5, 3))))
