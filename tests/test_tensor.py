"""Autodiff core: frozen forward values, gradient oracles, tape semantics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphtcn import tensor as T
from graphtcn.decoders import MlpDecoder
from graphtcn.errors import (
    ContractError,
    DomainError,
    NeighborhoodError,
    ShapeError,
)
from graphtcn.graph_attention import GraphAttentionLayer

from oracles import gal_oracle


def fd_scalar(build, n_params, shapes, seed=0, h=1e-5):
    """Finite-difference check for a scalar function of fresh random params."""
    rng = np.random.default_rng(seed)
    store = T.ParameterStore()
    for i, shape in enumerate(shapes):
        store.add(f"p{i}", rng.uniform(-2.0, 2.0, size=shape))
    return T.finite_difference_check(build, store, h=h)


class TestForwardValues:
    def test_affine_identity(self):
        out = T.affine([1.0, 2.0], np.eye(2), [0.0, 0.0])
        np.testing.assert_array_equal(out.data, [1.0, 2.0])

    def test_affine_zero_input_returns_bias(self):
        out = T.affine([0.0, 0.0], [[5.0, 7.0], [1.0, 2.0]], [3.0, -1.0])
        np.testing.assert_array_equal(out.data, [3.0, -1.0])

    def test_affine_hand_value(self):
        out = T.affine([1.0, 1.0], [[2.0, 0.0], [0.0, 3.0]], [1.0, 1.0])
        np.testing.assert_array_equal(out.data, [3.0, 4.0])

    def test_affine_leading_axes(self):
        x = np.arange(12.0).reshape(2, 3, 2)
        W = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 1.0]])
        out = T.affine(x, W, [0.5, 0.5, 0.5])
        assert out.shape == (2, 3, 3)
        np.testing.assert_allclose(out.data, x @ W + 0.5)

    def test_affine_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.affine([1.0, 2.0, 3.0], np.eye(2), None)

    def test_leaky_relu_slope(self):
        out = T.leaky_relu([-1.0, 2.0])
        np.testing.assert_array_equal(out.data, [-0.2, 2.0])

    def test_activations_at_zero(self):
        np.testing.assert_array_equal(T.tanh([0.0]).data, [0.0])
        np.testing.assert_array_equal(T.sigmoid([0.0]).data, [0.5])

    def test_tanh_closed_form(self):
        out = T.tanh([1.0])
        np.testing.assert_allclose(out.data, [0.7615941559557649], rtol=0, atol=1e-15)

    def test_sigmoid_extreme_inputs_finite(self):
        out = T.sigmoid([-800.0, 800.0])
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-300)

    def test_log_rejects_nonpositive(self):
        with pytest.raises(DomainError) as ei:
            T.log([1.0, 0.0, 2.0])
        assert "1" in str(ei.value)

    def test_sqrt_rejects_negative(self):
        with pytest.raises(DomainError):
            T.sqrt([4.0, -1.0])

    def test_mul_hand_value(self):
        out = T.mul([2.0, 3.0], [4.0, 5.0])
        np.testing.assert_array_equal(out.data, [8.0, 15.0])

    def test_mul_annihilator(self):
        np.testing.assert_array_equal(T.mul([2.0, 3.0], [0.0, 0.0]).data, [0.0, 0.0])

    def test_add_identity(self):
        x = np.array([1.5, -2.5, 0.0])
        np.testing.assert_array_equal(T.add(x, np.zeros(3)).data, x)

    def test_scalar_broadcast_allowed(self):
        out = T.mul(T.Tensor([1.0, 2.0]), T.Tensor(3.0))
        np.testing.assert_array_equal(out.data, [3.0, 6.0])

    def test_nonscalar_broadcast_rejected(self):
        with pytest.raises(ShapeError):
            T.add(np.ones((2, 3)), np.ones(3))

    def test_concat_values(self):
        out = T.concat([T.Tensor([1.0, 2.0]), T.Tensor([3.0])], axis=0)
        np.testing.assert_array_equal(out.data, [1.0, 2.0, 3.0])

    def test_concat_column_vectors(self):
        out = T.concat([T.Tensor([[1.0]]), T.Tensor([[2.0]])], axis=0)
        np.testing.assert_array_equal(out.data, [[1.0], [2.0]])

    def test_concat_extent_mismatch(self):
        with pytest.raises(ShapeError):
            T.concat([T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 4)))], axis=0)

    def test_masked_softmax_single(self):
        out = T.masked_softmax([5.0], [True])
        np.testing.assert_array_equal(out.data, [1.0])

    def test_masked_softmax_symmetry(self):
        out = T.masked_softmax([0.0, 0.0, 0.0], [True] * 3)
        np.testing.assert_allclose(out.data, [1 / 3] * 3, rtol=0, atol=1e-15)

    def test_masked_softmax_closed_form(self):
        out = T.masked_softmax([1.0, 2.0], [True, True])
        np.testing.assert_allclose(
            out.data, [0.2689414213699951, 0.7310585786300049], rtol=0, atol=1e-15
        )

    def test_masked_softmax_fully_masked_row(self):
        with pytest.raises(NeighborhoodError):
            T.masked_softmax([[1.0, 2.0], [3.0, 4.0]], [[True, True], [False, False]])

    def test_conv_identity_tap(self):
        # Kernel [0,0,1]: only the current-step tap fires.
        x = np.array([[3.0, 1.0, 4.0, 1.0, 5.0]])
        W = np.array([[[0.0, 0.0, 1.0]]])
        out = T.conv1d_causal(x, W, np.zeros(1))
        np.testing.assert_array_equal(out.data, x)

    def test_conv_hand_value(self):
        x = np.array([[1.0, 1.0, 1.0, 1.0]])
        W = np.array([[[1.0, 1.0, 1.0]]])
        out = T.conv1d_causal(x, W, np.zeros(1))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0, 3.0, 3.0]])

    def test_conv_kernel_longer_than_input(self):
        x = np.array([[2.0]])
        W = np.ones((1, 1, 5))
        out = T.conv1d_causal(x, W, np.zeros(1))
        np.testing.assert_array_equal(out.data, [[2.0]])

    def test_conv_dilation_reach(self):
        # d=2, k=2: out[t] = x[t] + x[t-2].
        x = np.array([[1.0, 2.0, 3.0, 4.0]])
        W = np.array([[[1.0, 1.0]]])
        out = T.conv1d_causal(x, W, np.zeros(1), dilation=2)
        np.testing.assert_array_equal(out.data, [[1.0, 2.0, 4.0, 6.0]])

    def test_conv_batched_matches_loop(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 2, 6))
        W = rng.normal(size=(4, 2, 3))
        b = rng.normal(size=4)
        out = T.conv1d_causal(x, W, b)
        for i in range(3):
            single = T.conv1d_causal(x[i], W, b)
            np.testing.assert_array_equal(out.data[i], single.data)

    def test_reduce_values(self):
        assert T.reduce_mean([2.5, 1.5]).item() == 2.0
        assert T.reduce_min([7.0]).item() == 7.0
        assert T.reduce_sum(np.zeros((3, 2))).item() == 0.0

    def test_reduce_empty_rejected(self):
        with pytest.raises(ShapeError):
            T.reduce_sum(np.zeros((0, 2)))

    def test_reshape_transpose_repeat(self):
        x = T.Tensor(np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(T.reshape(x, (3, 2)).data, np.arange(6.0).reshape(3, 2))
        np.testing.assert_array_equal(T.transpose(x, (1, 0)).data, x.data.T)
        r = T.repeat_axis(T.Tensor([[1.0, 2.0]]), axis=0, times=3)
        np.testing.assert_array_equal(r.data, [[1.0, 2.0]] * 3)

    def test_repeat_requires_unit_extent(self):
        with pytest.raises(ShapeError):
            T.repeat_axis(T.Tensor(np.ones((2, 2))), axis=0, times=3)


class TestBackward:
    def test_sum_gives_ones(self):
        x = T.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with T.Tape() as tape:
            out = T.reduce_sum(x)
        T.backward(out, tape)
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_square_gradient(self):
        x = T.Tensor([3.0], requires_grad=True)
        with T.Tape() as tape:
            out = T.reduce_sum(T.mul(x, x))
        T.backward(out, tape)
        np.testing.assert_array_equal(x.grad, [6.0])

    def test_detached_leaf_keeps_zero_grad(self):
        x = T.Tensor([1.0], requires_grad=True)
        y = T.Tensor([2.0], requires_grad=True)
        with T.Tape() as tape:
            out = T.reduce_sum(T.mul(x, x))
        T.backward(out, tape)
        np.testing.assert_array_equal(y.grad, [0.0])

    def test_nonscalar_root_rejected(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        with T.Tape() as tape:
            out = T.mul(x, x)
        with pytest.raises(ContractError):
            T.backward(out, tape)

    def test_repeated_backward_accumulates(self):
        x = T.Tensor([3.0], requires_grad=True)
        with T.Tape() as tape:
            out = T.reduce_sum(T.mul(x, x))
        T.backward(out, tape)
        T.backward(out, tape)
        np.testing.assert_array_equal(x.grad, [12.0])

    def test_grad_accumulates_across_tapes_until_zeroed(self):
        x = T.Tensor([2.0], requires_grad=True)
        for _ in range(2):
            with T.Tape() as tape:
                out = T.reduce_sum(T.mul(x, x))
            T.backward(out, tape)
        np.testing.assert_array_equal(x.grad, [8.0])
        x.zero_grad()
        np.testing.assert_array_equal(x.grad, [0.0])

    def test_fanout_sums_contributions(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        with T.Tape() as tape:
            a = T.mul(x, x)
            out = T.reduce_sum(T.add(a, a))
        T.backward(out, tape)
        np.testing.assert_array_equal(x.grad, [4.0, 8.0])

    def test_min_routes_to_lowest_index_on_tie(self):
        x = T.Tensor([5.0, 5.0, 7.0], requires_grad=True)
        with T.Tape() as tape:
            out = T.reduce_min(x)
        T.backward(out, tape)
        np.testing.assert_array_equal(x.grad, [1.0, 0.0, 0.0])

    def test_min_axis_routing(self):
        x = T.Tensor([[3.0, 1.0], [2.0, 8.0]], requires_grad=True)
        with T.Tape() as tape:
            out = T.reduce_sum(T.reduce_min(x, axis=1))
        T.backward(out, tape)
        np.testing.assert_array_equal(x.grad, [[0.0, 1.0], [1.0, 0.0]])

    def test_no_tape_records_nothing(self):
        x = T.Tensor([1.0], requires_grad=True)
        out = T.mul(x, x)
        assert out.requires_grad is False


class TestFiniteDifference:
    """Per-op gradient checks against the central-difference oracle."""

    def test_constant_function(self):
        store = T.ParameterStore()
        store.add("w", np.ones(3))

        def f(p):
            return T.reduce_sum(T.mul(T.Tensor([1.0, 2.0, 3.0]), T.Tensor([1.0, 1.0, 1.0])))

        assert T.finite_difference_check(f, store) == 0.0

    def test_affine_chain_tight(self):
        def f(p):
            return T.reduce_sum(T.affine(p["p0"], p["p1"], p["p2"]))

        err = fd_scalar(f, 3, [(4, 3), (3, 5), (5,)], seed=1)
        assert err < 1e-8

    @pytest.mark.parametrize(
        "name,build",
        [
            ("leaky_relu", lambda p: T.reduce_sum(T.leaky_relu(p["p0"]))),
            ("tanh", lambda p: T.reduce_sum(T.tanh(p["p0"]))),
            ("sigmoid", lambda p: T.reduce_sum(T.sigmoid(p["p0"]))),
            ("exp", lambda p: T.reduce_sum(T.exp(p["p0"]))),
            ("mul", lambda p: T.reduce_sum(T.mul(p["p0"], p["p0"]))),
            ("sub", lambda p: T.reduce_sum(T.mul(T.sub(p["p0"], T.tanh(p["p0"])), p["p0"]))),
            ("mean", lambda p: T.reduce_mean(T.mul(p["p0"], p["p0"]))),
            ("reshape", lambda p: T.reduce_sum(T.mul(T.reshape(p["p0"], (8,)), T.reshape(p["p0"], (8,))))),
            ("transpose", lambda p: T.reduce_sum(T.tanh(T.transpose(p["p0"], (1, 0))))),
        ],
    )
    def test_elementwise_ops(self, name, build):
        # Inputs drawn from [-2, 2]; offsets below keep log/sqrt in-domain.
        shape = (8,) if name == "reshape" else (4, 2)
        err = fd_scalar(build, 1, [shape], seed=hash(name) % 1000)
        assert err < 1e-6, name

    def test_log_gradient(self):
        rng = np.random.default_rng(3)
        store = T.ParameterStore()
        store.add("x", rng.uniform(0.5, 2.0, size=(5,)))

        def f(p):
            return T.reduce_sum(T.log(p["x"]))

        assert T.finite_difference_check(f, store) < 1e-6

    def test_sqrt_gradient(self):
        rng = np.random.default_rng(4)
        store = T.ParameterStore()
        store.add("x", rng.uniform(0.5, 4.0, size=(5,)))

        def f(p):
            return T.reduce_sum(T.sqrt(p["x"]))

        assert T.finite_difference_check(f, store) < 1e-6

    def test_leaky_relu_away_from_kink(self):
        # The kink at 0 is not differentiable; keep probes clear of it.
        store = T.ParameterStore()
        store.add("x", np.array([-1.5, -0.7, 0.6, 1.8]))

        def f(p):
            return T.reduce_sum(T.mul(T.leaky_relu(p["x"]), p["x"]))

        assert T.finite_difference_check(f, store) < 1e-6

    def test_matmul_gradient(self):
        def f(p):
            return T.reduce_sum(T.tanh(T.matmul(p["p0"], p["p1"])))

        err = fd_scalar(f, 2, [(3, 4), (4, 2)], seed=5)
        assert err < 1e-6

    def test_batched_matmul_gradient(self):
        def f(p):
            y = T.matmul(p["p0"], p["p1"])
            return T.reduce_sum(T.mul(y, y))

        err = fd_scalar(f, 2, [(2, 3, 3, 4), (2, 3, 4, 2)], seed=15)
        assert err < 1e-6

    def test_matmul_leading_axes_must_match(self):
        with pytest.raises(ShapeError):
            T.matmul(np.zeros((2, 3, 4)), np.zeros((3, 4, 2)))
        with pytest.raises(ShapeError):
            T.matmul(np.zeros((2, 3, 4)), np.zeros((4, 2)))
        with pytest.raises(ShapeError):
            T.matmul(np.zeros((2, 3, 4)), np.zeros((2, 3, 2)))

    def test_concat_slice_gradient(self):
        def f(p):
            c = T.concat([p["p0"], p["p1"]], axis=1)
            s = T.slice_axis(c, axis=1, start=1, stop=4)
            return T.reduce_sum(T.mul(s, s))

        err = fd_scalar(f, 2, [(2, 2), (2, 3)], seed=6)
        assert err < 1e-6

    def test_repeat_gradient(self):
        def f(p):
            r = T.repeat_axis(p["p0"], axis=0, times=4)
            return T.reduce_sum(T.mul(r, T.tanh(r)))

        err = fd_scalar(f, 1, [(1, 3)], seed=7)
        assert err < 1e-6

    def test_masked_softmax_gradient(self):
        mask = np.array([[True, True, False, True], [True, False, True, True]])

        def f(p):
            y = T.masked_softmax(p["p0"], mask)
            return T.reduce_sum(T.mul(y, p["p0"]))

        err = fd_scalar(f, 1, [(2, 4)], seed=8)
        assert err < 1e-6

    @pytest.mark.parametrize("dilation", [1, 2])
    def test_conv_gradient(self, dilation):
        def f(p):
            y = T.conv1d_causal(p["p0"], p["p1"], p["p2"], dilation=dilation)
            return T.reduce_sum(T.mul(y, T.sigmoid(y)))

        err = fd_scalar(f, 3, [(2, 6), (3, 2, 3), (3,)], seed=9 + dilation)
        assert err < 1e-6

    def test_conv_batched_gradient(self):
        def f(p):
            y = T.conv1d_causal(p["p0"], p["p1"], p["p2"])
            return T.reduce_mean(T.mul(y, y))

        err = fd_scalar(f, 3, [(2, 3, 5), (2, 3, 2), (2,)], seed=12)
        assert err < 1e-6

    def test_min_gradient_off_ties(self):
        rng = np.random.default_rng(13)
        store = T.ParameterStore()
        store.add("x", rng.uniform(-2.0, 2.0, size=(3, 4)))

        def f(p):
            return T.reduce_sum(T.reduce_min(T.mul(p["x"], p["x"]), axis=1))

        assert T.finite_difference_check(f, store) < 1e-6

    def test_affine_no_bias(self):
        def f(p):
            return T.reduce_sum(T.tanh(T.affine(p["p0"], p["p1"], None)))

        err = fd_scalar(f, 2, [(3, 2), (2, 4)], seed=14)
        assert err < 1e-6


class TestProperties:
    @given(
        st.lists(st.floats(-50, 50), min_size=2, max_size=8),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_softmax_rows_normalize(self, logits, data):
        mask = data.draw(
            st.lists(st.booleans(), min_size=len(logits), max_size=len(logits)).filter(any)
        )
        out = T.masked_softmax(np.array(logits), np.array(mask))
        assert abs(out.data.sum() - 1.0) < 1e-9
        assert (out.data[~np.array(mask)] == 0.0).all()
        assert (out.data >= 0.0).all()

    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=6), st.floats(-20, 20))
    @settings(max_examples=60, deadline=None)
    def test_softmax_shift_invariance(self, logits, shift):
        mask = np.ones(len(logits), dtype=bool)
        base = T.masked_softmax(np.array(logits), mask)
        shifted = T.masked_softmax(np.array(logits) + shift, mask)
        np.testing.assert_allclose(base.data, shifted.data, rtol=0, atol=1e-12)

    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 400))
    @settings(max_examples=40, deadline=None)
    def test_concat_slice_roundtrip(self, n1, n2, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(3, n1)), rng.normal(size=(3, n2))
        c = T.concat([T.Tensor(a), T.Tensor(b)], axis=1)
        back_a = T.slice_axis(c, 1, 0, n1)
        back_b = T.slice_axis(c, 1, n1, n1 + n2)
        assert (back_a.data == a).all() and (back_b.data == b).all()

    @given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 10), st.integers(0, 300))
    @settings(max_examples=40, deadline=None)
    def test_conv_causality_bit_exact(self, k, dilation, t_perturb, seed):
        rng = np.random.default_rng(seed)
        t_len = 12
        t_perturb = min(t_perturb, t_len - 1)
        x = rng.normal(size=(2, t_len))
        W = rng.normal(size=(3, 2, k))
        b = rng.normal(size=3)
        base = T.conv1d_causal(x, W, b, dilation=dilation).data
        x2 = x.copy()
        x2[:, t_perturb:] += rng.normal(size=(2, t_len - t_perturb))
        bumped = T.conv1d_causal(x2, W, b, dilation=dilation).data
        assert (base[:, :t_perturb] == bumped[:, :t_perturb]).all()

    def test_replay_determinism(self):
        def run():
            rng = np.random.default_rng(42)
            x = T.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
            W = T.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
            with T.Tape() as tape:
                h = T.tanh(T.affine(x, W, None))
                out = T.reduce_mean(T.mul(h, h))
            T.backward(out, tape)
            return out.data.copy(), x.grad.copy(), W.grad.copy()

        o1, gx1, gw1 = run()
        o2, gx2, gw2 = run()
        assert (o1 == o2).all() and (gx1 == gx2).all() and (gw1 == gw2).all()


class TestBatchedPasses:
    """One pass over a leading axis equals one call per slice of it."""

    def test_attention_over_steps_equals_per_step_calls(self):
        store = T.ParameterStore()
        layer = GraphAttentionLayer(store, "gal", 5, 3, 4, np.random.default_rng(50))
        rng = np.random.default_rng(51)
        h = rng.normal(size=(4, 6, 5))
        pos = rng.normal(size=(4, 6, 2)) * 3.0
        out, attn = layer.forward(T.Tensor(h), pos)
        assert out.shape == (4, 6, 12) and attn.shape == (3, 4, 6, 6)
        for t in range(4):
            step_out, step_attn = layer.forward(T.Tensor(h[t]), pos[t])
            o_out, o_attn = gal_oracle(h[t], pos[t], store, "gal", 3, 4)
            np.testing.assert_allclose(out.data[t], step_out.data, rtol=0, atol=1e-12)
            np.testing.assert_allclose(attn[:, t], step_attn, rtol=0, atol=1e-12)
            np.testing.assert_allclose(out.data[t], o_out, rtol=0, atol=1e-12)
            np.testing.assert_allclose(attn[:, t], o_attn, rtol=0, atol=1e-12)

    def test_decoder_over_draws_equals_one_draw_calls(self):
        store = T.ParameterStore()
        dec = MlpDecoder(store, "dec", 3, 4, 5, 2, np.random.default_rng(52), hidden=6)
        rng = np.random.default_rng(53)
        h = T.Tensor(rng.normal(size=(7, 3, 5)))
        noise = rng.standard_normal((4, 3, 2))
        out = dec.forward(h, noise).data
        assert out.shape == (4, 7, 4, 2)
        for m in range(4):
            np.testing.assert_allclose(out[m], dec.forward(h, noise[m:m + 1]).data[0],
                                       rtol=0, atol=1e-12)


class TestParameterStore:
    def test_ordered_names_and_duplicate_rejection(self):
        store = T.ParameterStore()
        store.add("b", np.zeros(2))
        store.add("a", np.zeros(3))
        assert store.names() == ["b", "a"]
        with pytest.raises(ContractError):
            store.add("a", np.zeros(1))

    def test_zero_grads(self):
        store = T.ParameterStore()
        w = store.add("w", np.ones(3))
        w.grad += 5.0
        store.zero_grads()
        np.testing.assert_array_equal(w.grad, np.zeros(3))

    def test_load_arrays_validates(self):
        store = T.ParameterStore()
        store.add("w", np.ones((2, 2)))
        with pytest.raises(ContractError):
            store.load_arrays({"w": np.ones((2, 2)), "extra": np.ones(1)})
        with pytest.raises(ShapeError):
            store.load_arrays({"w": np.ones((2, 3))})
        store.load_arrays({"w": np.full((2, 2), 9.0)})
        np.testing.assert_array_equal(store["w"].data, np.full((2, 2), 9.0))
