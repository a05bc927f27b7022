"""Autodiff core: frozen forward values, gradient oracles, tape semantics."""

import ast
import inspect
import re
import threading
import zlib
from collections import Counter
from pathlib import Path

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

import chain_ops as C
from oracles import conv_oracle, gal_oracle


def pair_softmax_op(src, dst):
    """The attention's pair softmax kernel run as a tape op on [..., N]
    scores, as the attention chain before the attention_weights op (now
    chain_ops.attention_weights) ran it."""
    y, grads = T._pair_softmax(src.data, dst.data, T._recording((src, dst)))
    out = T.Tensor(y)

    def bwd(g):
        gs, gd = grads(g)
        T._accumulate(src, gs)
        T._accumulate(dst, gd)

    T._record(out, [src, dst], bwd)
    return out


def row_mean_op(x):
    """The mean of each row of a [M, K] tensor as a tape op, as the variety
    loss chain ran it before best_of_m_ade fused it."""
    scale = 1.0 / x.data.shape[1]
    return T._unary(x, x.data.mean(axis=1),
                    lambda g: np.expand_dims(g, 1) * scale * np.ones_like(x.data))


def leaf(values):
    """A gradient leaf: a parameter of a store of its own."""
    return T.ParameterStore().add("x", values)


def fd_scalar(build, n_params, shapes, seed=0):
    """Finite-difference check for a scalar function of fresh random params."""
    rng = np.random.default_rng(seed)
    store = T.ParameterStore()
    for i, shape in enumerate(shapes):
        store.add(f"p{i}", rng.uniform(-2.0, 2.0, size=shape))
    return T.finite_difference_check(build, store)


def tape_and_central_gradients(build, x, h=1e-5):
    """Tape gradient and central-difference gradient of build({"p0": x})."""
    store = T.ParameterStore()
    p = store.add("p0", x)
    with T.Tape() as tape:
        T.backward(build(store), tape)
    numeric = np.empty_like(x)
    flat = p.data.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = build(store).item()
        flat[i] = orig - h
        f_minus = build(store).item()
        flat[i] = orig
        numeric.reshape(-1)[i] = (f_plus - f_minus) / (2.0 * h)
    return p.grad, numeric


def same_memory(a, b):
    """Both arrays are C-contiguous and cover the same bytes."""
    return (a.flags.c_contiguous and b.flags.c_contiguous and a.nbytes == b.nbytes
            and a.__array_interface__["data"][0] == b.__array_interface__["data"][0])


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
            T.affine([1.0, 2.0, 3.0], np.eye(2), np.zeros(2))

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

    @pytest.mark.parametrize("shape", [(1,), (5,), (2, 3, 4)])
    def test_pair_softmax_equals_unfused_chain(self, shape):
        rng = np.random.default_rng(sum(shape))
        si, sj = rng.normal(size=shape) * 3.0, rng.normal(size=shape) * 3.0
        n = shape[-1]
        ref = T.masked_softmax(
            T.leaky_relu(T.add(T.repeat_axis(si[..., :, None], -1, n),
                               T.repeat_axis(sj[..., None, :], -2, n))),
            np.ones(shape + (n,), dtype=bool))
        y, grads = T._pair_softmax(si, sj, False)
        assert y.shape == shape + (n,) and grads is None
        assert (y == ref.data).all()

    def test_pair_softmax_single_node_is_one(self):
        y, _ = T._pair_softmax(np.array([[-40.0], [7.0]]), np.array([[3.0], [-2.0]]), False)
        assert (y == 1.0).all() and y.shape == (2, 1, 1)

    @pytest.mark.parametrize("shape,via_conv", [
        ((2, 5, 6), True), ((2, 5, 6), False), ((3, 4), False), ((3, 2, 8), False)])
    def test_gated_activation_equals_unfused_chain(self, shape, via_conv):
        # Values and input gradients, bit for bit. via_conv feeds the
        # [B, T, C] output of conv1d_causal, as in a TCN layer.
        rng = np.random.default_rng(sum(shape))
        x = rng.normal(size=shape) * 3.0
        W = rng.normal(size=(shape[-1], shape[-1], 2))
        c = shape[-1] // 2
        w = rng.normal(size=shape[:-1] + (c,))

        def chain(t):
            return T.mul(T.tanh(T.slice_axis(t, -1, 0, c)),
                         T.sigmoid(T.slice_axis(t, -1, c, 2 * c)))

        results = []
        for op in (chain, C.gated_activation):
            store = T.ParameterStore()
            p = store.add("x", x)
            with T.Tape() as tape:
                out = op(T.conv1d_causal(p, W, np.zeros(W.shape[0])) if via_conv else p)
                T.backward(T.reduce_sum(T.mul(out, T.Tensor(w))), tape)
            results.append((out.data, p.grad.copy()))
        (ref, ref_grad), (out, grad) = results
        assert out.shape == w.shape
        assert (out == ref).all() and (grad == ref_grad).all()

    def test_gated_activation_needs_even_extent(self):
        # gated_conv's gate, once the gated_activation op, halves an even
        # number of output channels.
        with pytest.raises(ShapeError, match="even"):
            T.gated_conv(np.zeros((2, 4, 2)), np.zeros((3, 2, 2)), np.zeros(3), 1)

    def test_gated_conv_shapes_checked(self):
        args = [np.zeros((2, 4, 3)), np.zeros((6, 3, 2)), np.zeros(6), 2]
        assert T.gated_conv(*args).shape == (2, 4, 3)
        bad = {0: [np.zeros((3, 4)), np.zeros((2, 4, 2)), np.zeros((1, 2, 4, 3))],  # x
               1: [np.zeros((6, 3)), np.zeros((6, 2, 2))],                          # W
               2: [np.zeros(4), np.zeros((6, 1))],                                  # b
               3: [0]}                                                              # dilation
        for i, cases in bad.items():
            for value in cases:
                with pytest.raises(ShapeError):
                    T.gated_conv(*(args[:i] + [value] + args[i + 1:]))

    @pytest.mark.parametrize("heads,lead", [(1, (5,)), (2, (3, 4)), (3, (2, 2, 3))])
    def test_head_affine_equals_affine_over_side_by_side_heads(self, heads, lead):
        # The unfused chain: affine over the heads' weights concatenated on
        # the output axis, then heads moved to the front. Values and every
        # gradient, bit for bit.
        rng = np.random.default_rng(heads)
        d_in, d_out = 6, 4
        x = rng.normal(size=lead + (d_in,))
        W = rng.normal(size=(heads, d_in, d_out))
        b = rng.normal(size=(heads, d_out))
        w = rng.normal(size=(heads,) + lead + (d_out,))
        r = len(lead)

        store = T.ParameterStore()
        px = store.add("x", x)
        pW = store.add("Wcat", np.concatenate(list(W), axis=-1))
        pb = store.add("bcat", b.reshape(-1))
        with T.Tape() as tape:
            ref = T.affine(px, pW, pb)
            ref = T.transpose(T.reshape(ref, lead + (heads, d_out)),
                              (r,) + tuple(range(r)) + (r + 1,))
            T.backward(T.reduce_sum(T.mul(ref, T.Tensor(w))), tape)

        store2 = T.ParameterStore()
        qx, qW, qb = store2.add("x", x), store2.add("W", W), store2.add("b", b)
        with T.Tape() as tape:
            out = C.head_affine(qx, qW, qb)
            T.backward(T.reduce_sum(T.mul(out, T.Tensor(w))), tape)

        assert out.shape == (heads,) + lead + (d_out,)
        assert (out.data == ref.data).all()
        assert (qx.grad == px.grad).all()
        assert (np.concatenate(list(qW.grad), axis=-1) == pW.grad).all()
        assert (qb.grad.reshape(-1) == pb.grad).all()

    def test_head_affine_shapes_checked(self):
        # attention_layer's value weights, once the head_affine op's.
        h, w, res = np.zeros((3, 4)), np.zeros((2, 4)), (np.zeros((4, 4)), np.zeros(4))
        for val_W, val_b in [(np.zeros((4, 2)), np.zeros(2)),           # no head axis
                             (np.zeros((2, 5, 2)), np.zeros((2, 2))),   # inputs
                             (np.zeros((1, 4, 4)), np.zeros((1, 4))),   # heads vs w1
                             (np.zeros((2, 4, 2)), np.zeros(4))]:       # bias
            with pytest.raises(ShapeError, match="value weights"):
                T.attention_layer(h, None, w, w, val_W, val_b, *res)

    @pytest.mark.parametrize("edges", [True, False])
    @pytest.mark.parametrize("heads,lead", [(1, ()), (2, (3,)), (3, (2, 3))])
    def test_attention_weights_equals_unfused_chain(self, heads, lead, edges):
        # The chain the op replaces: w1 and w2 transposed, the edge term
        # through a transposed a_e, then per-head transposes and the pair
        # softmax. Values and every input gradient, bit for bit.
        # h is an op output that feeds one more op after the attention, as
        # the layer's residual does, so it holds a gradient before the
        # attention's two terms arrive, and their order shows.
        rng = np.random.default_rng(10 * heads + len(lead) + edges)
        n, d_in, width = 5, 6, 4
        shapes = {"h": lead + (n, d_in), "w1": (heads, d_in), "w2": (heads, d_in),
                  "W_e": (2, width), "b_e": (width,), "a_e": (heads, width)}
        values = {k: rng.normal(size=v) for k, v in shapes.items()}
        centred = rng.normal(size=lead + (n, 2)) * 3.0
        w = rng.normal(size=(heads,) + lead + (n, n))
        w_h = rng.normal(size=shapes["h"])
        r = len(lead)
        to_heads = (r + 1,) + tuple(range(r + 1))

        def chain(p, h):
            w1, w2 = T.transpose(p["w1"], (1, 0)), T.transpose(p["w2"], (1, 0))
            zero = np.zeros(heads)
            if edges:
                ae = T.transpose(p["a_e"], (1, 0))
                qv = T.affine(T.Tensor(centred), T.affine(p["W_e"], ae, zero), zero)
                src = T.add(T.affine(h, w1, T.affine(p["b_e"], ae, zero)), qv)
                dst = T.sub(T.affine(h, w2, zero), qv)
            else:
                src, dst = T.affine(h, w1, zero), T.affine(h, w2, zero)
            return pair_softmax_op(T.transpose(src, to_heads), T.transpose(dst, to_heads))

        def fused(p, h):
            edge = (p["W_e"], p["b_e"], p["a_e"]) if edges else None
            return C.attention_weights(h, centred if edges else None, p["w1"], p["w2"], edge)

        results = []
        for op in (chain, fused):
            store = T.ParameterStore()
            for k, v in values.items():
                store.add(k, v)
            with T.Tape() as tape:
                h = T.reshape(store["h"], shapes["h"])
                out = op(store, h)
                loss = T.add(T.reduce_sum(T.mul(out, T.Tensor(w))),
                             T.reduce_sum(T.mul(h, T.Tensor(w_h))))
                T.backward(loss, tape)
            results.append([out.data] + [store[k].grad.copy() for k in shapes])
        assert results[1][0].shape == (heads,) + lead + (n, n)
        for ref, got in zip(*results):
            assert ref.shape == got.shape and ref.tobytes() == got.tobytes()
        if not edges:
            assert all((g == 0.0).all() for g in results[1][4:])

    def test_attention_weights_shapes_checked(self):
        # attention_layer's scores, once the attention_weights op's.
        h, w = np.zeros((3, 4)), np.zeros((2, 4))
        edge = (np.zeros((2, 5)), np.zeros(5), np.zeros((2, 5)))
        rest = (np.zeros((2, 4, 3)), np.zeros((2, 3)), np.zeros((4, 6)), np.zeros(6))

        def attention(h, centred, w1, w2, edge):
            return T.attention_layer(h, centred, w1, w2, *rest, edge)

        attention(h, np.zeros((3, 2)), w, w, edge)
        bad = [
            (np.zeros((3, 5)), None, w, w, None),                  # h width
            (np.zeros(4), None, w, w, None),                        # h without a node axis
            (h, None, np.zeros(4), np.zeros(4), None),              # w1 not [H, in]
            (h, None, w, np.zeros((3, 4)), None),                   # w2 vs w1
            (h, np.zeros((3, 2)), w, w, (np.zeros((3, 5)),) + edge[1:]),       # W_edge
            (h, np.zeros((3, 2)), w, w, edge[:2] + (np.zeros((3, 5)),)),       # a_e heads
            (h, np.zeros((3, 2)), w, w, (edge[0], np.zeros((5, 1)), edge[2])),  # b_edge
            (h, np.zeros((2, 2)), w, w, edge),                      # positions
            (h, None, w, w, edge),                                  # no positions
        ]
        for args in bad:
            with pytest.raises(ShapeError):
                attention(*args)

    @pytest.mark.parametrize("groups,per_node", [(1, True), (1, False), (3, True), (3, False)])
    def test_draw_affine_equals_unfused_chain(self, groups, per_node):
        # The chain the op replaces: the two row sets of one stored weight,
        # two affines, the tiles of both parts over [M, N] and an add.
        # Values and every input gradient, bit for bit.
        rng = np.random.default_rng(groups + 2 * per_node)
        m, n, s_dim, d_dim, width = 4, 5, 3, 2, 6
        x_shared = rng.normal(size=(n, groups * s_dim))
        x_draw = rng.normal(size=(m, n, groups * d_dim) if per_node else (m, groups * d_dim))
        W = rng.normal(size=(groups * (s_dim + d_dim), width))
        b = rng.normal(size=width)
        w = rng.normal(size=(m, n, width))

        def tile(x, axis, times):
            shape = x.data.shape
            return T.repeat_axis(T.reshape(x, shape[:axis] + (1,) + shape[axis:]), axis, times)

        def rows(W, start, stop):
            blocks = T.reshape(W, (groups, -1, width))
            return T.reshape(T.slice_axis(blocks, 1, start, stop), (-1, width))

        def chain(shared, per_draw, W, b, groups):
            draw = T.affine(per_draw, rows(W, s_dim, s_dim + d_dim), np.zeros(width))
            if not per_node:
                draw = tile(draw, 1, n)
            return T.add(tile(T.affine(shared, rows(W, 0, s_dim), b), 0, m), draw)

        results = []
        for op in (chain, T.draw_affine):
            store = T.ParameterStore()
            ps, pd = store.add("shared", x_shared), store.add("draw", x_draw)
            pW, pb = store.add("W", W), store.add("b", b)
            with T.Tape() as tape:
                out = op(T.reshape(ps, ps.shape), T.reshape(pd, pd.shape), pW, pb, groups)
                T.backward(T.reduce_sum(T.mul(out, T.Tensor(w))), tape)
            results.append([out.data] + [t.grad.copy() for t in (ps, pd, pW, pb)])
        assert results[1][0].shape == (m, n, width)
        for ref, got in zip(*results):
            assert ref.shape == got.shape and ref.tobytes() == got.tobytes()

    def test_draw_affine_shapes_checked(self):
        args = [np.zeros((3, 4)), np.zeros((2, 6)), np.zeros((10, 6)), np.zeros(6), 2]
        assert T.draw_affine(*args).shape == (2, 3, 6)
        assert T.draw_affine(args[0], np.zeros((2, 3, 6)), *args[2:]).shape == (2, 3, 6)
        bad = {0: [np.zeros((3, 3)), np.zeros((3, 5)), np.zeros((1, 3, 4))],  # shared cols, rank
               1: [np.zeros((2, 4)), np.zeros((2, 5)), np.zeros((2, 4, 6)), np.zeros(6),
                   np.zeros((1, 2, 3, 6))],                                  # per-draw
               2: [np.zeros((10, 7)), np.zeros((9, 6)), np.zeros(10)],       # W width, rows, rank
               3: [np.zeros((1, 6))],                                        # bias rank
               4: [0, 4]}                                                    # groups
        for i, cases in bad.items():
            for value in cases:
                with pytest.raises(ShapeError):
                    T.draw_affine(*(args[:i] + [value] + args[i + 1:]))

    def test_tanh_gate_equals_unfused_chain(self):
        rng = np.random.default_rng(23)
        x = np.concatenate([rng.normal(size=20) * 3.0, [0.0, -0.0, 50.0, -50.0]])
        w = rng.normal(size=x.shape)
        results = []
        for op in (lambda t: T.mul(T.tanh(t), t), C.tanh_gate):
            store = T.ParameterStore()
            p = store.add("x", x)
            with T.Tape() as tape:
                out = op(T.reshape(p, x.shape))
                T.backward(T.reduce_sum(T.mul(out, T.Tensor(w))), tape)
            results.append((out.data, p.grad.copy()))
        (ref, ref_grad), (out, grad) = results
        assert out.tobytes() == ref.tobytes() and grad.tobytes() == ref_grad.tobytes()

    @pytest.mark.parametrize("heads,lead", [(1, ()), (2, (3,)), (3, (2, 3))])
    def test_aggregate_heads_equals_unfused_chain(self, heads, lead):
        # The chain the op replaces: each head's weighted sum, leaky, heads
        # moved last and merged. The values come from head_affine, whose
        # output is not C-ordered, as in the layer; their column 0 is
        # exactly 0, so every sum in it sits on the leaky kink. Values and
        # every input gradient, bit for bit.
        rng = np.random.default_rng(40 + heads)
        n, d_in, width = 5, 3, 4
        r = len(lead)
        alpha = rng.uniform(size=(heads,) + lead + (n, n))
        x, W, b = (rng.normal(size=s) for s in (lead + (n, d_in), (heads, d_in, width),
                                                 (heads, width)))
        W[..., 0] = b[..., 0] = 0.0
        w = rng.normal(size=lead + (n, heads * width))

        def chain(alpha, g):
            per_head = T.leaky_relu(T.matmul(alpha, g))
            return T.reshape(T.transpose(per_head, tuple(range(1, r + 2)) + (0, r + 2)),
                             lead + (n, heads * width))

        results = []
        for op in (chain, C.aggregate_heads):
            store = T.ParameterStore()
            pa, px, pW, pb = (store.add(k, v) for k, v in
                              (("alpha", alpha), ("x", x), ("W", W), ("b", b)))
            with T.Tape() as tape:
                out = op(T.reshape(pa, pa.shape), C.head_affine(px, pW, pb))
                T.backward(T.reduce_sum(T.mul(out, T.Tensor(w))), tape)
            results.append([out.data] + [t.grad.copy() for t in (pa, px, pW, pb)])
        assert results[1][0].shape == lead + (n, heads * width)
        for ref, got in zip(*results):
            assert ref.shape == got.shape and ref.tobytes() == got.tobytes()

    def test_aggregate_heads_shapes_checked(self):
        # attention_layer merges the heads' sums, once the aggregate_heads
        # op's output, and adds the residual: [in, heads * out] weights.
        h, w, val = np.zeros((2, 3, 4)), np.zeros((2, 4)), (np.zeros((2, 4, 5)), np.zeros((2, 5)))
        out, alpha = T.attention_layer(h, None, w, w, *val, np.zeros((4, 10)), np.zeros(10))
        assert out.shape == (2, 3, 10) and alpha.shape == (2, 2, 3, 3)
        for res_W, res_b in [(np.zeros((4, 5)), np.zeros(5)),      # one head's width
                             (np.zeros((3, 10)), np.zeros(10)),    # inputs
                             (np.zeros((4, 10)), np.zeros(5)),     # bias
                             (np.zeros(10), np.zeros(10))]:        # rank
            with pytest.raises(ShapeError, match="residual"):
                T.attention_layer(h, None, w, w, *val, res_W, res_b)

    @pytest.mark.parametrize("input_grad", [True, False])
    @pytest.mark.parametrize("edges", [True, False])
    @pytest.mark.parametrize("heads,lead", [(1, ()), (2, (3,)), (3, (2, 3))])
    def test_attention_layer_equals_unfused_chain(self, heads, lead, edges, input_grad):
        # The layer's six-op chain (chain_ops.attention_layer) against the
        # op: output, attention and every input gradient, bit for bit.
        # With input_grad, h is an op output that feeds one more term, so
        # it holds a gradient before the layer's four terms arrive, and
        # their order shows; else h is a constant. The output gradient
        # arrives through a transpose, so it is not C-ordered, as in the
        # spatial encoder.
        rng = np.random.default_rng(100 * heads + 10 * len(lead) + 2 * edges + input_grad)
        n, d_in, d_out, width = 5, 6, 4, 3
        shapes = {"h": lead + (n, d_in), "w1": (heads, d_in), "w2": (heads, d_in),
                  "val_W": (heads, d_in, d_out), "val_b": (heads, d_out),
                  "res_W": (d_in, heads * d_out), "res_b": (heads * d_out,),
                  "W_e": (2, width), "b_e": (width,), "a_e": (heads, width)}
        values = {k: rng.normal(size=v) for k, v in shapes.items()}
        centred = rng.normal(size=lead + (n, 2)) * 3.0
        out_shape = lead + (n, heads * d_out)
        w = rng.normal(size=out_shape[::-1])
        w_h = rng.normal(size=shapes["h"])

        results = []
        for op in (C.attention_layer, T.attention_layer):
            store = T.ParameterStore()
            p = {k: store.add(k, v) for k, v in values.items()}
            with T.Tape() as tape:
                h = T.reshape(p["h"], shapes["h"]) if input_grad else T.Tensor(values["h"])
                edge = (p["W_e"], p["b_e"], p["a_e"]) if edges else None
                out, alpha = op(h, centred if edges else None, p["w1"], p["w2"], p["val_W"],
                                p["val_b"], p["res_W"], p["res_b"], edge)
                loss = T.reduce_sum(T.mul(T.transpose(out, range(len(out_shape))[::-1]),
                                          T.Tensor(w)))
                if input_grad:
                    loss = T.add(loss, T.reduce_sum(T.mul(h, T.Tensor(w_h))))
                T.backward(loss, tape)
            results.append([out.data, alpha] + [p[k].grad.copy() for k in shapes])
        assert results[1][0].shape == out_shape
        assert results[1][1].shape == (heads,) + lead + (n, n)
        for ref, got in zip(*results):
            assert ref.shape == got.shape and ref.tobytes() == got.tobytes()
        assert (results[1][2] != 0.0).all() == input_grad
        if not edges:
            assert all((g == 0.0).all() for g in results[1][-3:])

    @pytest.mark.parametrize("input_grad", [True, False])
    @pytest.mark.parametrize("shape,k,dilation", [
        ((2, 5, 3), 3, 1), ((3, 7, 2), 2, 2), ((1, 4, 3), 5, 1), ((2, 1, 2), 2, 3)])
    def test_gated_conv_equals_unfused_chain(self, shape, k, dilation, input_grad):
        # conv1d_causal, then the gate (chain_ops.gated_conv), against the
        # op: output and every input gradient, bit for bit. The last two
        # cases have taps that reach before step 0. With input_grad, x is
        # an op output that already holds a gradient when the layer's
        # arrives; else it is a constant.
        rng = np.random.default_rng(sum(shape) + 10 * k + dilation + 100 * input_grad)
        c = 3
        x = rng.normal(size=shape) * 2.0
        W = rng.normal(size=(2 * c, shape[-1], k))
        b = rng.normal(size=2 * c)
        w = rng.normal(size=shape[:-1] + (c,))
        w_x = rng.normal(size=shape)

        results = []
        for op in (C.gated_conv, T.gated_conv):
            store = T.ParameterStore()
            px, pW, pb = store.add("x", x), store.add("W", W), store.add("b", b)
            with T.Tape() as tape:
                xin = T.reshape(px, shape) if input_grad else T.Tensor(x)
                out = op(xin, pW, pb, dilation)
                loss = T.reduce_sum(T.mul(out, T.Tensor(w)))
                if input_grad:
                    loss = T.add(loss, T.reduce_sum(T.mul(xin, T.Tensor(w_x))))
                T.backward(loss, tape)
            results.append([out.data] + [t.grad.copy() for t in (px, pW, pb)])
        assert results[1][0].shape == shape[:-1] + (c,)
        for ref, got in zip(*results):
            assert ref.shape == got.shape and ref.tobytes() == got.tobytes()
        assert (results[1][1] != 0.0).any() == input_grad

    @pytest.mark.parametrize("m,n,t", [(1, 1, 1), (4, 3, 5), (20, 2, 12), (20, 7, 12)])
    def test_best_of_m_ade_equals_unfused_chain(self, m, n, t):
        # The chain the op replaces, as variety_loss ran it. The samples are
        # an op output that feeds one more term, so they hold a gradient
        # before the op's arrives, and the output gradient is not 1: two
        # scales, each of which rounds differently through g * (1 / (N T))
        # than through g / (N T) at some N T here. The last draw ties the
        # winner, which keeps the lowest index. Values and the input
        # gradient, bit for bit.
        rng = np.random.default_rng(m + n + t)
        gt = rng.normal(size=(n, t, 2))
        x = gt + rng.normal(size=(m, n, t, 2))
        x[-1] = x[np.argmin(np.linalg.norm(x - gt, axis=-1).mean(axis=(1, 2)))]
        w = rng.normal(size=x.shape)

        def chain(samples, gt):
            diff = T.sub(samples, T.Tensor(np.broadcast_to(gt, samples.shape)))
            dist = T.sqrt(T.reduce_sum(T.mul(diff, diff), axis=-1))
            return T.reduce_min(row_mean_op(T.reshape(dist, (m, -1))), axis=0)

        for scale in (0.9, 0.61):
            results = []
            for op in (chain, T.best_of_m_ade):
                store = T.ParameterStore()
                p = store.add("x", x)
                with T.Tape() as tape:
                    samples = T.reshape(p, x.shape)
                    out = op(samples, gt)
                    loss = T.add(T.mul(out, scale), T.reduce_sum(T.mul(samples, T.Tensor(w))))
                    T.backward(loss, tape)
                results.append((out.data, p.grad.copy()))
            (ref, ref_grad), (got, grad) = results
            assert got.shape == () and got.tobytes() == ref.tobytes()
            assert grad.tobytes() == ref_grad.tobytes()

    def test_best_of_m_ade_shapes_checked(self):
        for x, gt in [(np.zeros((2, 3, 4)), np.zeros((3, 4))),            # no draw axis
                      (np.zeros((2, 3, 4, 2)), np.zeros((3, 5, 2))),      # steps
                      (np.zeros((2, 3, 4, 3)), np.zeros((3, 4, 3))),      # not 2-d points
                      (np.zeros((0, 3, 4, 2)), np.zeros((3, 4, 2))),      # no draws
                      (np.zeros((2, 0, 4, 2)), np.zeros((0, 4, 2)))]:     # no nodes
            with pytest.raises(ShapeError):
                T.best_of_m_ade(x, gt)

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
        # Batched [B, T, C_in] against the 2-d call on each x[i].T, byte
        # for byte; the batched result is a C-ordered [B, T, C_out].
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 6, 2))
        W = rng.normal(size=(4, 2, 3))
        b = rng.normal(size=4)
        out = T.conv1d_causal(x, W, b)
        assert out.shape == (3, 6, 4) and out.data.flags.c_contiguous
        for i in range(3):
            single = T.conv1d_causal(x[i].T, W, b)
            assert out.data[i].tobytes() == np.ascontiguousarray(single.data.T).tobytes()

    @pytest.mark.parametrize("dilation", [1, 2, 3])
    @pytest.mark.parametrize("k,t_len", [(1, 4), (2, 1), (3, 7), (5, 4)])
    def test_conv_matches_per_tap_loop(self, k, t_len, dilation):
        # (5, 4) and (2, 1): the kernel reaches further back than the input.
        rng = np.random.default_rng(100 * k + 10 * t_len + dilation)
        x = rng.normal(size=(3, t_len, 2))
        W = rng.normal(size=(4, 2, k))
        b = rng.normal(size=4)
        batched = T.conv1d_causal(x, W, b, dilation=dilation).data
        assert batched.shape == (3, t_len, 4)
        for i in range(3):
            ref = conv_oracle(x[i].T, W, b, dilation)
            single = T.conv1d_causal(x[i].T, W, b, dilation=dilation).data
            np.testing.assert_allclose(single, ref, rtol=0, atol=1e-12)
            np.testing.assert_allclose(batched[i], ref.T, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dilation", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_conv_2d_gradients_equal_batched(self, k, dilation):
        # The 2-d [C_in, T] form's x, W and b gradients, byte for byte,
        # against the batched form's on the same sequence. At k=3, d=3
        # tap 0 reaches before step 0 at every step.
        rng = np.random.default_rng(10 * k + dilation)
        seq = rng.normal(size=(6, 2))
        W = rng.normal(size=(3, 2, k))
        b = rng.normal(size=3)
        w = rng.normal(size=(6, 3))
        grads = []
        for x, w_out in ((seq.T, w.T), (seq[None], w[None])):
            store = T.ParameterStore()
            px, pW, pb = store.add("x", x), store.add("W", W), store.add("b", b)
            with T.Tape() as tape:
                out = T.conv1d_causal(px, pW, pb, dilation=dilation)
                T.backward(T.reduce_sum(T.mul(out, T.Tensor(w_out))), tape)
            gx = px.grad.T if x.ndim == 2 else px.grad[0]
            grads.append([np.ascontiguousarray(gx), pW.grad, pb.grad])
        for single, batched in zip(*grads):
            assert single.shape == batched.shape and single.tobytes() == batched.tobytes()
        assert all((g != 0.0).any() for g in grads[0])

    def test_reduce_values(self):
        assert T.reduce_mean([2.5, 1.5]).item() == 2.0
        assert T.reduce_min([7.0], axis=0).item() == 7.0
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
        x = leaf(np.arange(6.0).reshape(2, 3))
        with T.Tape() as tape:
            out = T.reduce_sum(x)
        T.backward(out, tape)
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_square_gradient(self):
        x = leaf([3.0])
        with T.Tape() as tape:
            out = T.reduce_sum(T.mul(x, x))
        T.backward(out, tape)
        np.testing.assert_array_equal(x.grad, [6.0])

    def test_detached_leaf_keeps_zero_grad(self):
        x = leaf([1.0])
        y = leaf([2.0])
        with T.Tape() as tape:
            out = T.reduce_sum(T.mul(x, x))
        T.backward(out, tape)
        np.testing.assert_array_equal(y.grad, [0.0])

    def test_nonscalar_root_rejected(self):
        x = leaf([1.0, 2.0])
        with T.Tape() as tape:
            out = T.mul(x, x)
        with pytest.raises(ContractError):
            T.backward(out, tape)

    def test_repeated_backward_accumulates(self):
        x = leaf([3.0])
        with T.Tape() as tape:
            out = T.reduce_sum(T.mul(x, x))
        T.backward(out, tape)
        T.backward(out, tape)
        np.testing.assert_array_equal(x.grad, [12.0])

    def test_repeated_backward_over_scalar_ops(self):
        # Ops on 0-d tensors produce numpy scalars as gradients; each sweep
        # hands them on and drops them, so only the leaf keeps one.
        x = leaf(np.array(0.5))
        with T.Tape() as tape:
            y = T.mul(T.exp(T.mul(x, 3.0)), T.tanh(x))
            T.backward(y, tape)
            once = x.grad.copy()
            assert all(n.out.grad is None for n in tape.nodes)
            T.backward(y, tape)
        assert x.grad == 2.0 * once
        assert all(n.out.grad is None for n in tape.nodes)

    def test_grad_accumulates_across_tapes_until_zeroed(self):
        x = leaf([2.0])
        for _ in range(2):
            with T.Tape() as tape:
                out = T.reduce_sum(T.mul(x, x))
            T.backward(out, tape)
        np.testing.assert_array_equal(x.grad, [8.0])
        x.grad[...] = 0.0
        np.testing.assert_array_equal(x.grad, [0.0])

    def test_fanout_sums_contributions(self):
        x = leaf([1.0, 2.0])
        with T.Tape() as tape:
            a = T.mul(x, x)
            out = T.reduce_sum(T.add(a, a))
        T.backward(out, tape)
        np.testing.assert_array_equal(x.grad, [4.0, 8.0])

    def test_min_routes_to_lowest_index_on_tie(self):
        x = leaf([5.0, 5.0, 7.0])
        with T.Tape() as tape:
            out = T.reduce_min(x, axis=0)
        T.backward(out, tape)
        np.testing.assert_array_equal(x.grad, [1.0, 0.0, 0.0])

    def test_min_axis_routing(self):
        x = leaf([[3.0, 1.0], [2.0, 8.0]])
        with T.Tape() as tape:
            out = T.reduce_sum(T.reduce_min(x, axis=1))
        T.backward(out, tape)
        np.testing.assert_array_equal(x.grad, [[0.0, 1.0], [1.0, 0.0]])

    def test_min_without_an_axis_raises_before_recording(self):
        # reduce_min has no whole-array form: its backward rule needs an
        # axis, so axis=None is refused before a node is pushed.
        x = leaf([[3.0, 1.0], [2.0, 8.0]])
        with pytest.raises(ShapeError, match="reduce_min.*axis=None"):
            T.reduce_min(x, None)
        with T.Tape() as tape:
            with pytest.raises(ShapeError, match="reduce_min.*axis=None"):
                T.reduce_min(x, None)
        assert tape.nodes == []

    def test_slice_gradients_add_into_one_buffer(self):
        # Overlapping slices of a leaf and of an intermediate add their
        # gradients in place, in reverse tape order.
        rng = np.random.default_rng(17)
        p = leaf(rng.normal(size=(2, 5)))
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
        with T.Tape() as tape:
            y = T.tanh(p)
            loss = T.add(
                T.add(T.reduce_sum(T.mul(T.slice_axis(p, 1, 0, 3), a)),
                      T.reduce_sum(T.mul(T.slice_axis(p, 1, 2, 5), b))),
                T.add(T.reduce_sum(T.mul(T.slice_axis(y, 1, 0, 3), a)),
                      T.reduce_sum(T.mul(T.slice_axis(y, 1, 2, 5), b))))
        T.backward(loss, tape)
        expected = np.zeros((2, 5))
        expected[:, 2:5] += b
        expected[:, 0:3] += a
        assert (p.grad == expected * (1.0 - y.data * y.data) + expected).all()

    def test_add_hands_its_operands_separate_buffers(self):
        # add's first operand keeps the output gradient itself. exp(a),
        # recorded earlier, later adds into that buffer in place; had b
        # been handed the same buffer, q's gradient would take exp's term.
        rng = np.random.default_rng(23)
        p, q = leaf(rng.normal(size=2)), leaf(rng.normal(size=2))
        with T.Tape() as tape:
            a, b = T.tanh(p), T.tanh(q)
            c = T.exp(a)
            z = T.add(a, b)
            loss = T.add(T.reduce_sum(z), T.reduce_sum(c))
        T.backward(loss, tape)
        assert (q.grad == 1.0 - np.tanh(q.data) ** 2).all()

    def test_no_tape_records_nothing(self):
        x = leaf([1.0])
        out = T.mul(x, x)
        assert out.requires_grad is False
        for name, (fn, shapes, _) in CASES.items():
            inputs = _op_inputs(shapes, grad_at=range(len(shapes)))
            assert fn(*inputs).requires_grad is False, name


def _public_ops() -> set:
    """Every public op of the tensor module, found by introspection (the
    rule perfbench's op counter wraps ops by)."""
    skip = {"backward", "finite_difference_check"}
    return {name for name, obj in vars(T).items()
            if inspect.isfunction(obj) and obj.__module__ == T.__name__
            and not name.startswith("_") and name not in skip}


def test_every_public_op_has_a_caller():
    # The op set is closed: each public op is called, through the module
    # alias T, from the package outside graphtcn.tensor or from the
    # acceptance gates that pin it. An op left without callers is deleted.
    package = Path(T.__file__).parent
    files = [p for p in package.glob("*.py") if p.name != "tensor.py"]
    files.append(Path(__file__).parent / "test_acceptance.py")
    text = "".join(p.read_text(encoding="utf-8") for p in files)
    assert sorted(op for op in _public_ops() if not re.search(rf"\bT\.{op}\(", text)) == []


# The program callers besides the package: what runs when the package is
# used (the benchmark, its recorder and the fixed gates), and the commands
# README and CI give. Unit tests are not among them.
ROOT = Path(__file__).resolve().parent.parent
PROGRAM_CODE = [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "bench_history" / "record.py",
                ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "golden.py"]
PROGRAM_TEXT = [ROOT / "README.md", ROOT / ".github" / "workflows" / "tier1.yml"]


def _reads(tree) -> tuple:
    """How often the code in ``tree`` names each identifier: as an
    attribute (``x.name``), and as an attribute, a bare name or an import."""
    attrs, any_kind = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            attrs[node.attr] += 1
            any_kind[node.attr] += 1
        elif isinstance(node, ast.Name):
            any_kind[node.id] += 1
        elif isinstance(node, ast.alias):
            any_kind[node.name.rpartition(".")[2]] += 1
    return attrs, any_kind


def _public_defs(body) -> list:
    return [node for node in body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def test_every_public_name_has_a_program_caller():
    # Each public function and class at module level in the package, and
    # each public method and property of a public class, is named by a
    # program caller: the package outside the definition itself, or a
    # PROGRAM_CODE or PROGRAM_TEXT file. A member counts as named only as
    # an attribute, ``x.member``; one that shares its name with an
    # attribute of another type (ndarray.size) passes unseen. A name left
    # without a program caller is deleted, with the tests that read it.
    package = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(Path(T.__file__).parent.glob("*.py"))}
    program = [ast.parse(p.read_text(encoding="utf-8")) for p in PROGRAM_CODE]
    attrs, any_kind = Counter(), Counter()
    for tree in [*package.values(), *program]:
        a, n = _reads(tree)
        attrs += a
        any_kind += n
    text = "".join(p.read_text(encoding="utf-8") for p in PROGRAM_TEXT)
    orphans = []
    for module, tree in package.items():
        for node in _public_defs(tree.body):
            members = _public_defs(node.body) if isinstance(node, ast.ClassDef) else []
            for d, member in [(node, False)] + [(m, True) for m in members]:
                inside_attrs, inside_any = _reads(d)
                outside = (attrs[d.name] - inside_attrs[d.name] if member
                           else any_kind[d.name] - inside_any[d.name])
                pattern = rf"\.{d.name}\b" if member else rf"\b{d.name}\b"
                if outside <= 0 and not re.search(pattern, text):
                    orphans.append(f"{module}.{node.name}.{d.name}" if member
                                   else f"{module}.{d.name}")
    assert orphans == []


def _is_grad(node) -> bool:
    """Whether ``node`` is ``x.grad`` or an item of it (``x.grad[sl]``)."""
    if isinstance(node, ast.Subscript):
        return _is_grad(node.value)
    return isinstance(node, ast.Attribute) and node.attr == "grad"


def _grad_writes(node, where="") -> list:
    """(enclosing definition, line, value) for every write to a gradient
    under ``node``: an assignment or augmented assignment to ``.grad`` or
    an item of it, or an ``out=`` argument naming one. The value is the
    expression assigned, or None for any other write."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            found += _grad_writes(child, f"{where}.{child.name}".lstrip("."))
            continue
        pairs = []
        if isinstance(child, ast.Assign):
            for target in child.targets:
                if isinstance(target, ast.Tuple):
                    values = getattr(child.value, "elts", [None] * len(target.elts))
                    pairs += zip(target.elts, values)
                else:
                    pairs.append((target, child.value))
        elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
            pairs.append((child.target, None))
        elif isinstance(child, ast.keyword) and child.arg == "out":
            pairs.append((child.value, None))
        found += [(where, child.lineno, value) for target, value in pairs if _is_grad(target)]
        found += _grad_writes(child, where)
    return found


# Every gradient is stored or added by _accumulate. A new Tensor starts
# without one, the store hands out and re-points its gradient views, and
# backward only clears the gradient it hands on.
GRAD_WRITERS = {"_accumulate", "Tensor.__init__", "ParameterStore._hand_out",
                "ParameterStore._grow"}


def test_only_accumulate_writes_a_gradient():
    writes = _grad_writes(ast.parse(Path(T.__file__).read_text(encoding="utf-8")))
    stray = [f"{where}, line {line}" for where, line, value in writes
             if not (where in GRAD_WRITERS or where == "backward"
                     and isinstance(value, ast.Constant) and value.value is None)]
    assert stray == []
    assert {where for where, _, _ in writes} == GRAD_WRITERS | {"backward"}


# "op" or "op.variant" -> (call on the input tensors, input shapes, tape
# nodes one call records). stack is reshape + concat: two nodes.
OP_CASES = {
    "add": (T.add, [(2, 3), (2, 3)], 1),
    "add.scalar": (T.add, [(2, 3), ()], 1),
    "sub": (T.sub, [(2, 3), (2, 3)], 1),
    "sub.scalar": (T.sub, [(), (2, 3)], 1),
    "mul": (T.mul, [(2, 3), (2, 3)], 1),
    "mul.scalar": (T.mul, [(2, 3), ()], 1),
    "affine": (T.affine, [(2, 3), (3, 4), (4,)], 1),
    "draw_affine": (lambda s, p, W, b: T.draw_affine(s, p, W, b, 1),
                    [(3, 4), (2, 5), (9, 6), (6,)], 1),
    "draw_affine.per_node": (lambda s, p, W, b: T.draw_affine(s, p, W, b, 3),
                             [(3, 6), (2, 3, 3), (9, 6), (6,)], 1),
    "attention_layer": (
        lambda h, w1, w2, vW, vb, rW, rb: T.attention_layer(h, None, w1, w2, vW, vb, rW, rb)[0],
        [(2, 3, 4), (2, 4), (2, 4), (2, 4, 5), (2, 5), (4, 10), (10,)], 1),
    "attention_layer.edge": (
        lambda h, w1, w2, vW, vb, rW, rb, W_e, b_e, a_e: T.attention_layer(
            h, np.arange(6.0).reshape(3, 2), w1, w2, vW, vb, rW, rb, (W_e, b_e, a_e))[0],
        [(3, 4), (2, 4), (2, 4), (2, 4, 5), (2, 5), (4, 10), (10,), (2, 5), (5,), (2, 5)], 1),
    "matmul": (T.matmul, [(2, 3), (3, 4)], 1),
    "leaky_relu": (T.leaky_relu, [(2, 3)], 1),
    "tanh": (T.tanh, [(2, 3)], 1),
    "sigmoid": (T.sigmoid, [(2, 3)], 1),
    "exp": (T.exp, [(2, 3)], 1),
    "log": (T.log, [(2, 3)], 1),
    "sqrt": (T.sqrt, [(2, 3)], 1),
    "concat": (lambda a, b: T.concat([a, b], axis=1), [(2, 3), (2, 1)], 1),
    "slice_axis": (lambda x: T.slice_axis(x, 1, 1, 3), [(2, 4)], 1),
    "reshape": (lambda x: T.reshape(x, (3, 2)), [(2, 3)], 1),
    "transpose": (lambda x: T.transpose(x, (1, 0)), [(2, 3)], 1),
    "repeat_axis": (lambda x: T.repeat_axis(x, 1, 3), [(2, 1)], 1),
    "stack": (lambda a, b: T.stack([a, b], axis=1), [(2, 3), (2, 3)], 2),
    "masked_softmax": (lambda x: T.masked_softmax(x, [[True, False, True]] * 2), [(2, 3)], 1),
    "conv1d_causal": (lambda x, W, b: T.conv1d_causal(x, W, b, dilation=2),
                      [(2, 5), (3, 2, 2), (3,)], 1),
    "gated_conv": (lambda x, W, b: T.gated_conv(x, W, b, 2), [(2, 5, 2), (4, 2, 2), (4,)], 1),
    "reduce_sum": (T.reduce_sum, [(2, 3)], 1),
    "reduce_sum.axis": (lambda x: T.reduce_sum(x, axis=1), [(2, 3)], 1),
    "reduce_mean": (T.reduce_mean, [(2, 3)], 1),
    "reduce_min": (lambda x: T.reduce_min(x, axis=0), [(2, 3)], 1),
    "reduce_min.axis": (lambda x: T.reduce_min(x, axis=-1), [(2, 3)], 1),
    "best_of_m_ade": (lambda x: T.best_of_m_ade(x, np.zeros((2, 3, 2))), [(4, 2, 3, 2)], 1),
}


# The ops that attention_layer and gated_conv fused, kept in chain_ops as
# the chains those ops are checked against, follow the same rule.
CHAIN_CASES = {
    "head_affine": (C.head_affine, [(2, 3), (2, 3, 4), (2, 4)], 1),
    "attention_weights": (lambda h, w1, w2: C.attention_weights(h, None, w1, w2),
                          [(2, 3, 4), (2, 4), (2, 4)], 1),
    "attention_weights.edge": (
        lambda h, w1, w2, W_e, b_e, a_e: C.attention_weights(
            h, np.arange(6.0).reshape(3, 2), w1, w2, (W_e, b_e, a_e)),
        [(3, 4), (2, 4), (2, 4), (2, 5), (5,), (2, 5)], 1),
    "aggregate_heads": (C.aggregate_heads, [(2, 3, 3), (2, 3, 4)], 1),
    "tanh_gate": (C.tanh_gate, [(2, 3)], 1),
    "gated_activation": (C.gated_activation, [(2, 4)], 1),
}
CASES = {**OP_CASES, **CHAIN_CASES}


def _op_inputs(shapes, grad_at=()):
    # Positive values, so log and sqrt are in their domain.
    rng = np.random.default_rng(5)
    inputs = [T.Tensor(rng.uniform(0.5, 1.5, size=s)) for s in shapes]
    for i in grad_at:
        inputs[i].requires_grad = True
    return inputs


class TestRecordingRule:
    """Every public op, and every chain op of chain_ops, records one node
    exactly when an input needs a gradient."""

    def test_table_covers_every_public_op(self):
        assert {case.split(".")[0] for case in OP_CASES} == _public_ops()

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_constant_inputs_record_nothing(self, case):
        fn, shapes, _ = CASES[case]
        with T.Tape() as tape:
            out = fn(*_op_inputs(shapes))
        assert tape.nodes == [] and out.requires_grad is False

    @pytest.mark.parametrize("case,i", [(c, i) for c in sorted(CASES)
                                        for i in range(len(CASES[c][1]))])
    def test_one_grad_input_records_one_node(self, case, i):
        fn, shapes, nodes = CASES[case]
        inputs = _op_inputs(shapes, grad_at=[i])
        # No buffer yet, so the gradient below is one the op wrote.
        inputs[i].grad = None
        with T.Tape() as tape:
            out = fn(*inputs)
            assert len(tape.nodes) == nodes and out.requires_grad is True
            loss = T.reduce_sum(out)
        T.backward(loss, tape)
        assert inputs[i].grad is not None and inputs[i].grad.shape == shapes[i]
        # The constants take no gradient, and input i takes the same bytes as
        # when every input needs one.
        assert all(t.grad is None for j, t in enumerate(inputs) if j != i)
        every = _op_inputs(shapes, grad_at=range(len(shapes)))
        with T.Tape() as tape:
            loss = T.reduce_sum(fn(*every))
        T.backward(loss, tape)
        assert inputs[i].grad.tobytes() == every[i].grad.tobytes()

    def test_other_threads_record_nothing_into_this_tape(self):
        x = leaf([1.0, 2.0])
        seen = {}

        def work():
            seen["bare"] = T.mul(x, x).requires_grad
            with T.Tape() as own:
                T.tanh(x)
            seen["own"] = len(own.nodes)

        with T.Tape() as tape:
            thread = threading.Thread(target=work)
            thread.start()
            thread.join()
        assert tape.nodes == []
        assert seen == {"bare": False, "own": 1}


class TestFiniteDifference:
    """Per-op gradient checks against the central-difference oracle."""

    def test_constant_function(self):
        store = T.ParameterStore()
        store.add("w", np.ones(3))

        def f(p):
            return T.reduce_sum(T.mul(T.Tensor([1.0, 2.0, 3.0]), T.Tensor([1.0, 1.0, 1.0])))

        assert T.finite_difference_check(f, store) == 0.0

    def test_rejects_a_parameter_that_reshapes_to_a_copy(self):
        # A strided entry's reshape(-1) is a copy: perturbing it would leave
        # the parameter unchanged and report a zero numeric gradient.
        store = T.ParameterStore()
        w = store.add("w", np.arange(9.0).reshape(3, 3))
        w.data = w.data.T

        def f(p):
            return T.reduce_sum(T.mul(p["w"], p["w"]))

        with pytest.raises(ContractError):
            T.finite_difference_check(f, store)

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
            ("tanh_gate", lambda p: T.reduce_sum(C.tanh_gate(p["p0"]))),
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
        # Inputs drawn from [-2, 2]. A relative bound alone fails wherever a
        # gradient entry is near zero (the sub case has them), so the check
        # adds an absolute floor far below a dropped term's O(0.1) error.
        shape = (8,) if name == "reshape" else (4, 2)
        rng = np.random.default_rng(zlib.crc32(name.encode()) % 1000)
        x = rng.uniform(-2.0, 2.0, size=shape)
        analytic, numeric = tape_and_central_gradients(build, x)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-8, err_msg=name)

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

    def test_pair_softmax_gradient(self):
        # A row whose logits all sit on one side of the leaky_relu kink is
        # shift invariant, so its src gradient is exactly 0 and the relative
        # error is noise. Offsetting dst by +-2 and +-3 puts every row on
        # both sides, at least 1 away from the kink.
        rng = np.random.default_rng(16)
        store = T.ParameterStore()
        store.add("src", rng.uniform(-0.5, 0.5, size=(2, 3, 4)))
        store.add("dst", rng.uniform(-0.5, 0.5, size=(2, 3, 4)) + [-3.0, -2.0, 2.0, 3.0])
        w = rng.normal(size=(2, 3, 4, 4))

        def f(p):
            y = pair_softmax_op(p["src"], p["dst"])
            return T.reduce_sum(T.mul(y, w))

        assert T.finite_difference_check(f, store) < 1e-6

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

        err = fd_scalar(f, 3, [(2, 5, 3), (2, 3, 2), (2,)], seed=12)
        assert err < 1e-6

    def test_head_affine_gradient(self):
        w = np.random.default_rng(17).normal(size=(2, 3, 4, 5))

        def f(p):
            y = C.head_affine(p["p0"], p["p1"], p["p2"])
            return T.reduce_sum(T.mul(T.tanh(y), T.Tensor(w)))

        err = fd_scalar(f, 3, [(3, 4, 6), (2, 6, 5), (2, 5)], seed=18)
        assert err < 1e-6

    @pytest.mark.parametrize("shape", [(6, 3, 4), (2, 3, 6)])
    def test_gated_activation_gradient(self, shape):
        w = np.random.default_rng(19).normal(size=shape[:-1] + (shape[-1] // 2,))

        def f(p):
            return T.reduce_sum(T.mul(C.gated_activation(p["p0"]), T.Tensor(w)))

        err = fd_scalar(f, 1, [shape], seed=20)
        assert err < 1e-6

    def test_transpose_gradient_non_involutive(self):
        # (1, 2, 0) is not its own inverse, so backward must invert it.
        w = np.random.default_rng(21).normal(size=(3, 4, 2))

        def build(p):
            return T.reduce_sum(T.mul(T.tanh(T.transpose(p["p0"], (1, 2, 0))), T.Tensor(w)))

        x = np.random.default_rng(22).uniform(-2.0, 2.0, size=(2, 3, 4))
        analytic, numeric = tape_and_central_gradients(build, x)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-8)

    def test_min_gradient_off_ties(self):
        rng = np.random.default_rng(13)
        store = T.ParameterStore()
        store.add("x", rng.uniform(-2.0, 2.0, size=(3, 4)))

        def f(p):
            return T.reduce_sum(T.reduce_min(T.mul(p["x"], p["x"]), axis=1))

        assert T.finite_difference_check(f, store) < 1e-6

    def test_aggregate_heads_gradient(self):
        w = np.random.default_rng(34).normal(size=(3, 4, 10))

        def f(p):
            return T.reduce_sum(T.mul(C.aggregate_heads(p["p0"], p["p1"]), T.Tensor(w)))

        err = fd_scalar(f, 2, [(2, 3, 4, 4), (2, 3, 4, 5)], seed=35)
        assert err < 1e-6

    @pytest.mark.parametrize("edges", [True, False])
    def test_attention_layer_gradient(self, edges):
        # Every input of the op: h, w1, w2, the value and residual weights
        # and, with edges, the three edge weights.
        rng = np.random.default_rng(37 + edges)
        centred = rng.normal(size=(2, 4, 2))
        w = rng.normal(size=(2, 4, 6))
        shapes = [(2, 4, 5), (3, 5), (3, 5), (3, 5, 2), (3, 2), (5, 6), (6,)]
        shapes += [(2, 3), (3,), (3, 3)] if edges else []

        def f(p):
            args = [p[f"p{i}"] for i in range(len(shapes))]
            out, _ = T.attention_layer(args[0], centred, *args[1:7],
                                       tuple(args[7:]) if edges else None)
            return T.reduce_sum(T.mul(out, T.Tensor(w)))

        assert fd_scalar(f, len(shapes), shapes, seed=38 + edges) < 1e-6

    @pytest.mark.parametrize("dilation", [1, 2])
    def test_gated_conv_gradient(self, dilation):
        w = np.random.default_rng(39).normal(size=(2, 6, 3))

        def f(p):
            return T.reduce_sum(T.mul(T.gated_conv(p["p0"], p["p1"], p["p2"], dilation),
                                      T.Tensor(w)))

        assert fd_scalar(f, 3, [(2, 6, 2), (6, 2, 3), (6,)], seed=40 + dilation) < 1e-6

    def test_best_of_m_ade_gradient(self):
        # Draws scaled 1x to 5x away from the target, so a step of h never
        # changes the winner.
        rng = np.random.default_rng(36)
        gt = rng.normal(size=(3, 4, 2))
        store = T.ParameterStore()
        store.add("x", gt + rng.normal(size=(5, 3, 4, 2)) * np.arange(1.0, 6.0)[:, None, None, None])
        assert T.finite_difference_check(lambda p: T.best_of_m_ade(p["x"], gt), store) < 1e-6


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
            x = leaf(rng.normal(size=(4, 3)))
            W = leaf(rng.normal(size=(3, 2)))
            with T.Tape() as tape:
                h = T.tanh(T.affine(x, W, np.zeros(2)))
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
        assert [name for name, _ in store.items()] == ["b", "a"]
        with pytest.raises(ContractError):
            store.add("a", np.zeros(1))

    def test_zero_grads(self):
        store = T.ParameterStore()
        w = store.add("w", np.ones(3))
        w.grad += 5.0
        store.zero_grads()
        np.testing.assert_array_equal(w.grad, np.zeros(3))

    def test_views_into_flat_buffers_survive_growth(self):
        store = T.ParameterStore()
        rng = np.random.default_rng(61)
        handed_out = []
        for i, shape in enumerate([(2, 3), (), (4,), (0, 2), (3, 2, 2), (40,)]):
            t = store.add(f"p{i}", rng.normal(size=shape))
            t.grad[...] = rng.normal(size=shape)
            handed_out.append((t, t.data.copy(), t.grad.copy()))
            data, grad = store.flat()
            assert data.size == grad.size == store.n_values()
            assert [t for _, t in store.items()] == [t for t, _, _ in handed_out]
            for t, values, grads in handed_out:
                assert np.shares_memory(t.data, data) or t.data.size == 0
                assert np.shares_memory(t.grad, grad) or t.grad.size == 0
                np.testing.assert_array_equal(t.data, values)
                np.testing.assert_array_equal(t.grad, grads)
            np.testing.assert_array_equal(
                data, np.concatenate([t.data.ravel() for t, _, _ in handed_out]))
            np.testing.assert_array_equal(
                grad, np.concatenate([t.grad.ravel() for t, _, _ in handed_out]))

    def test_names_placed_in_blocks_are_views_in_name_order(self):
        # Two blocks filled alternately: the names keep their order of
        # adding (a0, b0, a1, b1), the buffer holds each block whole (a0,
        # a1, b0, b1), and each name is a view of its slice of its block.
        store = T.ParameterStore()
        rng = np.random.default_rng(62)
        store.add("before", rng.normal(size=3))
        blocks = {"a": store.reserve((2, 3, 2)), "b": store.reserve((2, 4))}
        values = {f"{key}{k}": rng.normal(size=blk.shape[1:])
                  for k in range(2) for key, blk in blocks.items()}
        for name, v in values.items():
            store.add(name, v, block=blocks[name[0]])
        assert [name for name, _ in store.items()] == ["before", "a0", "b0", "a1", "b1"]
        assert store.n_values() == 23
        in_buffer_order = [values[n].ravel() for n in ("a0", "a1", "b0", "b1")]
        np.testing.assert_array_equal(store.flat()[0][3:], np.concatenate(in_buffer_order))
        for i in range(2):
            for name in values:
                blk, k = blocks[name[0]], int(name[1])
                np.testing.assert_array_equal(store[name].data, values[name])
                assert same_memory(store[name].data, blk.data[k])
                assert same_memory(store[name].grad, blk.grad[k])
            store.add(f"grow{i}", np.zeros(100))   # forces the buffers to move
        for key, blk in blocks.items():
            blk.grad[...] = rng.normal(size=blk.shape)
            np.testing.assert_array_equal(
                np.stack([store[f"{key}0"].grad, store[f"{key}1"].grad]), blk.grad)

    @pytest.mark.parametrize("offset,size", [(0, 7), (5, 2), (6, 1), (1, 2), (2, 3)])
    def test_add_rejects_placement_outside_or_overlapping(self, offset, size):
        # Names "a" and "b" take the first ``offset`` values of a 6-value
        # block; "c" of ``size`` values comes next. Past the block's end it
        # is refused and nothing changes; inside, it is the block's values
        # [offset, offset + size), clear of "a" and "b".
        store = T.ParameterStore()
        blk = store.reserve((6,))
        a = store.add("a", np.ones(offset // 2), block=blk)
        b = store.add("b", np.ones(offset - offset // 2), block=blk)
        names, n_values = [name for name, _ in store.items()], store.n_values()
        if offset + size > 6:
            with pytest.raises(ContractError, match="'c'"):
                store.add("c", np.ones(size), block=blk)
            assert [name for name, _ in store.items()] == names and store.n_values() == n_values
            return
        c = store.add("c", np.full(size, 2.0), block=blk)
        assert same_memory(c.data, blk.data[offset:offset + size])
        assert not np.shares_memory(c.data, a.data) and not np.shares_memory(c.data, b.data)
        np.testing.assert_array_equal(blk.data, [1.0] * offset + [2.0] * size
                                      + [0.0] * (6 - offset - size))

    def test_add_rejects_a_block_from_elsewhere(self):
        store, other = T.ParameterStore(), T.ParameterStore()
        w = store.add("w", np.ones(4))
        with pytest.raises(ContractError):
            store.add("x", np.ones(2), block=other.reserve((4,)))
        with pytest.raises(ContractError):
            store.add("y", np.ones(2), block=w)

    def test_load_arrays_writes_nothing_on_a_late_mismatch(self):
        store = T.ParameterStore()
        store.add("first", np.ones(3))
        store.add("last", np.ones((2, 2)))
        with pytest.raises(ShapeError):
            store.load_arrays({"first": np.full(3, 7.0), "last": np.ones((2, 3))})
        np.testing.assert_array_equal(store["first"].data, np.ones(3))

    def test_load_arrays_validates(self):
        store = T.ParameterStore()
        store.add("w", np.ones((2, 2)))
        with pytest.raises(ContractError):
            store.load_arrays({"w": np.ones((2, 2)), "extra": np.ones(1)})
        with pytest.raises(ShapeError):
            store.load_arrays({"w": np.ones((2, 3))})
        store.load_arrays({"w": np.full((2, 2), 9.0)})
        np.testing.assert_array_equal(store["w"].data, np.full((2, 2), 9.0))
