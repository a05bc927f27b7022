"""Spatial attention layer and two-layer encoder against loop oracles."""

import numpy as np
import pytest

from graphtcn import tensor as T
from graphtcn.config import ModelConfig
from graphtcn.errors import ShapeError
from graphtcn.graph_attention import GraphAttentionLayer, SpatialEncoder
from graphtcn.tensor import ParameterStore, Tensor

from oracles import gal_oracle, spatial_oracle


def make_layer(in_dim=6, heads=2, head_out=4, seed=0, **kw):
    store = ParameterStore()
    rng = np.random.default_rng(seed)
    layer = GraphAttentionLayer(store, "gal", in_dim, heads, head_out, rng, **kw)
    return layer, store


class TestEdgeFeatures:
    def test_identity_embedding_hand_value(self):
        layer, store = make_layer(head_out=2, heads=1, in_dim=2)
        store["gal.edge.W"].data[...] = np.eye(2)
        store["gal.edge.b"].data[...] = 0.0
        pos = np.array([[3.0, 1.0], [1.0, 0.0]])
        edge = layer.edge_features(pos).data
        np.testing.assert_array_equal(edge[0, 1], [2.0, 1.0])
        np.testing.assert_array_equal(edge[1, 0], [-2.0, -1.0])

    def test_coincident_pair_gives_bias(self):
        layer, store = make_layer()
        store["gal.edge.b"].data[...] = np.arange(4.0)
        pos = np.array([[2.0, 2.0], [2.0, 2.0]])
        edge = layer.edge_features(pos).data
        for i in range(2):
            for j in range(2):
                np.testing.assert_array_equal(edge[i, j], np.arange(4.0))

    def test_raw_displacement_antisymmetry(self):
        rng = np.random.default_rng(3)
        pos = rng.normal(size=(5, 2))
        disp = pos[:, None, :] - pos[None, :, :]
        np.testing.assert_array_equal(disp, -disp.transpose(1, 0, 2))

    def check_translation_invariance(self, use_edges):
        # Grid-aligned positions plus an integer shift: the centred
        # positions are reproduced without rounding, so for the same node
        # features the layer's output and attention match in every byte.
        layer, _ = make_layer(in_dim=4, use_edges=use_edges)
        rng = np.random.default_rng(4)
        for _ in range(20):
            shape = (int(rng.integers(1, 4)), int(rng.integers(1, 9)))
            pos = rng.integers(-2048, 2048, size=shape + (2,)) / 1024.0
            h = Tensor(rng.normal(size=shape + (4,)))
            out1, attn1 = layer.forward(h, pos)
            out2, attn2 = layer.forward(h, pos + np.array([7.0, -3.0]))
            assert out1.data.tobytes() == out2.data.tobytes()
            assert attn1.tobytes() == attn2.tobytes()

    def test_translation_invariance_bit_exact(self):
        self.check_translation_invariance(use_edges=True)

    def test_translation_invariance_bit_exact_no_edges(self):
        self.check_translation_invariance(use_edges=False)

    @pytest.mark.parametrize("h_shape, pos_shape", [
        ((4,), (2,)),          # no node axis, positions to match
        ((3, 5), (3, 2)),      # wrong feature width, left to attention_layer
        ((3, 4), (2, 2)),      # positions for another node count
        ((2, 3, 4), (3, 2)),   # positions without the step axis
    ])
    def test_bad_shapes_raise_shape_error(self, h_shape, pos_shape):
        layer, _ = make_layer(in_dim=4)
        with pytest.raises(ShapeError):
            layer.forward(Tensor(np.zeros(h_shape)), np.zeros(pos_shape))


class TestGatedTransform:
    """The value gate u * tanh(u), read through a layer that passes it out:
    one pedestrian attends to itself with weight 1, its value is the bias
    u, the gated value is non-negative, so leaky keeps it, and the residual
    is zero."""

    def gated(self, u):
        layer, store = make_layer(in_dim=2, heads=1, head_out=1)
        store["gal.h0.val.W"].data[...] = 0.0
        store["gal.h0.val.b"].data[...] = u
        store["gal.res.W"].data[...] = 0.0
        store["gal.res.b"].data[...] = 0.0
        out, _ = layer.forward(Tensor(np.ones((1, 2))), np.zeros((1, 2)))
        return out.data.reshape(1)

    def test_zero_preactivation(self):
        np.testing.assert_array_equal(self.gated(0.0), [0.0])

    def test_unit_preactivation(self):
        np.testing.assert_allclose(self.gated(1.0), [0.7615941559557649], rtol=0, atol=1e-15)

    def test_saturation_passes_value(self):
        np.testing.assert_allclose(self.gated(50.0), [50.0], rtol=1e-12)


class TestAttention:
    def test_single_pedestrian_all_ones(self):
        layer, _ = make_layer(in_dim=4)
        h = Tensor(np.random.default_rng(5).normal(size=(1, 4)))
        _, attn = layer.forward(h, np.zeros((1, 2)))
        np.testing.assert_array_equal(attn, np.ones((2, 1, 1)))

    def test_zero_params_uniform_rows(self):
        layer, store = make_layer(in_dim=4)
        for _, t in store.items():
            t.data[...] = 0.0
        h = Tensor(np.random.default_rng(6).normal(size=(5, 4)))
        _, attn = layer.forward(h, np.random.default_rng(7).normal(size=(5, 2)))
        np.testing.assert_allclose(attn, np.full((2, 5, 5), 0.2), rtol=0, atol=1e-15)

    def test_rows_sum_to_one(self):
        layer, _ = make_layer(in_dim=4)
        rng = np.random.default_rng(8)
        h = Tensor(rng.normal(size=(6, 4)))
        _, attn = layer.forward(h, rng.normal(size=(6, 2)))
        np.testing.assert_allclose(attn.sum(axis=-1), np.ones((2, 6)), rtol=0, atol=1e-9)

    def test_two_node_asymmetry(self):
        layer, _ = make_layer(in_dim=4, seed=11)
        rng = np.random.default_rng(12)
        h = Tensor(rng.normal(size=(2, 4)))
        _, attn = layer.forward(h, np.array([[0.0, 0.0], [3.0, 1.0]]))
        assert attn[0, 0, 1] != attn[0, 1, 0]


class TestLayerForward:
    def test_matches_loop_oracle(self):
        layer, store = make_layer(in_dim=5, heads=3, head_out=4, seed=21)
        rng = np.random.default_rng(22)
        h = rng.normal(size=(6, 5))
        pos = rng.normal(size=(6, 2))
        out, attn = layer.forward(Tensor(h), pos)
        o_out, o_attn = gal_oracle(h, pos, store.state_arrays(), "gal", 3, 4)
        np.testing.assert_allclose(out.data, o_out, rtol=0, atol=1e-12)
        np.testing.assert_allclose(attn, o_attn, rtol=0, atol=1e-12)

    def test_matches_loop_oracle_far_from_origin(self):
        # Scenes 1000 m from the origin bound the cancellation in the
        # separable edge score q_i . v - q_j . v, over several steps.
        layer, store = make_layer(in_dim=5, heads=3, head_out=4, seed=21)
        rng = np.random.default_rng(22)
        h = rng.normal(size=(3, 6, 5))
        pos = rng.normal(size=(3, 6, 2)) * 3.0 + [1000.0, -1000.0]
        out, attn = layer.forward(Tensor(h), pos)
        for t in range(3):
            o_out, o_attn = gal_oracle(h[t], pos[t], store.state_arrays(), "gal", 3, 4)
            np.testing.assert_allclose(out.data[t], o_out, rtol=0, atol=1e-12)
            np.testing.assert_allclose(attn[:, t], o_attn, rtol=0, atol=1e-12)

    def test_no_edge_variant_ignores_positions(self):
        layer, _ = make_layer(in_dim=4, seed=25, use_edges=False)
        rng = np.random.default_rng(26)
        h = Tensor(rng.normal(size=(3, 4)))
        out1, attn1 = layer.forward(h, rng.normal(size=(3, 2)))
        out2, attn2 = layer.forward(h, rng.normal(size=(3, 2)) + 100.0)
        assert (out1.data == out2.data).all() and (attn1 == attn2).all()

    def test_zero_everything_gives_zero_output(self):
        layer, store = make_layer(in_dim=4)
        for _, t in store.items():
            t.data[...] = 0.0
        h = Tensor(np.zeros((1, 4)))
        out, _ = layer.forward(h, np.zeros((1, 2)))
        np.testing.assert_array_equal(out.data, np.zeros((1, 8)))

    def test_uniform_alpha_identical_values(self):
        # All g_j equal => weighted average equals g regardless of N.
        layer, store = make_layer(in_dim=4, heads=1, head_out=3, seed=27)
        store["gal.h0.w1"].data[...] = 0.0
        store["gal.h0.w2"].data[...] = 0.0
        store["gal.h0.ae"].data[...] = 0.0
        h_row = np.random.default_rng(28).normal(size=4)
        for n in (1, 4):
            h = Tensor(np.tile(h_row, (n, 1)))
            out, attn = layer.forward(h, np.zeros((n, 2)))
            np.testing.assert_allclose(attn, np.full((1, n, n), 1.0 / n), atol=1e-15)
            np.testing.assert_allclose(out.data, np.tile(out.data[0], (n, 1)), atol=1e-12)

    def test_permutation_equivariance(self):
        layer, _ = make_layer(in_dim=5, heads=2, head_out=3, seed=29)
        rng = np.random.default_rng(30)
        h = rng.normal(size=(6, 5))
        pos = rng.normal(size=(6, 2))
        perm = rng.permutation(6)
        out, attn = layer.forward(Tensor(h), pos)
        out_p, attn_p = layer.forward(Tensor(h[perm]), pos[perm])
        np.testing.assert_allclose(out_p.data, out.data[perm], rtol=0, atol=1e-12)
        np.testing.assert_allclose(attn_p, attn[:, perm][:, :, perm], rtol=0, atol=1e-12)

    def test_gradients_flow(self):
        store = ParameterStore()
        rng = np.random.default_rng(31)
        layer = GraphAttentionLayer(store, "gal", 3, 2, 2, rng)
        h_np = rng.normal(size=(3, 3))
        pos = rng.normal(size=(3, 2))

        def f(p):
            out, _ = layer.forward(Tensor(h_np), pos)
            return T.reduce_mean(T.mul(out, out))

        err = T.finite_difference_check(f, store)
        assert err < 1e-6


class TestSpatialEncoder:
    def small_cfg(self, **kw):
        base = dict(embed_dim=6, gal1_heads=2, gal1_out=3, gal2_heads=1, gal2_out=5,
                    t_obs=3, t_pred=2)
        base.update(kw)
        return ModelConfig(**base)

    def build(self, cfg, seed=40):
        store = ParameterStore()
        enc = SpatialEncoder(store, cfg, np.random.default_rng(seed))
        return enc, store

    def test_matches_two_layer_oracle(self):
        cfg = self.small_cfg()
        enc, store = self.build(cfg)
        rng = np.random.default_rng(41)
        feats = rng.normal(size=(4, 3, 4))
        pos = rng.normal(size=(4, 3, 2))
        out, _ = enc.forward(Tensor(feats), pos)
        expected = spatial_oracle(feats, pos, store.state_arrays(), cfg)
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-12)

    def test_single_ped_attention_record(self):
        cfg = self.small_cfg()
        enc, _ = self.build(cfg)
        rng = np.random.default_rng(42)
        out, record = enc.forward(Tensor(rng.normal(size=(1, 3, 4))), rng.normal(size=(1, 3, 2)))
        assert out.shape == (1, 3, 5)
        assert record[0].shape == (2, 3, 1, 1) and record[1].shape == (1, 3, 1, 1)
        assert (record[0] == 1.0).all() and (record[1] == 1.0).all()

    def test_per_step_independence(self):
        cfg = self.small_cfg()
        enc, _ = self.build(cfg)
        rng = np.random.default_rng(43)
        feats = rng.normal(size=(2, 3, 4))
        pos = rng.normal(size=(2, 3, 2))
        base, _ = enc.forward(Tensor(feats), pos)
        feats2 = feats.copy()
        feats2[:, 2, :] += 1.0
        bumped, _ = enc.forward(Tensor(feats2), pos)
        assert (base.data[:, :2] == bumped.data[:, :2]).all()
        assert (base.data[:, 2] != bumped.data[:, 2]).any()

    def test_identical_steps_identical_outputs(self):
        cfg = self.small_cfg()
        enc, _ = self.build(cfg)
        rng = np.random.default_rng(44)
        f0 = rng.normal(size=(2, 1, 4))
        p0 = rng.normal(size=(2, 1, 2))
        feats = np.concatenate([f0, f0, f0], axis=1)
        pos = np.concatenate([p0, p0, p0], axis=1)
        out, _ = enc.forward(Tensor(feats), pos)
        assert (out.data[:, 0] == out.data[:, 1]).all()
        assert (out.data[:, 1] == out.data[:, 2]).all()

    def test_vanilla_variant_drops_edge_params(self):
        cfg = self.small_cfg(variant="vanilla_gat")
        _, store = self.build(cfg)
        assert not any("edge" in n or ".ae" in n for n, _ in store.items())

    def test_default_width_is_32(self):
        store = ParameterStore()
        enc = SpatialEncoder(store, ModelConfig(), np.random.default_rng(0))
        assert enc.out_dim == 32
        assert enc.gal1.out_dim == 32
