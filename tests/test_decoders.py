"""Decoder heads: sharing contracts, hand evaluations, round trips."""

import numpy as np
import pytest

from graphtcn import tensor as T
from graphtcn.decoders import (
    CvaeDecoder,
    MlpDecoder,
    PredictionSet,
    relative_to_absolute,
    reparameterize,
)
from graphtcn.config import ModelConfig
from graphtcn.errors import ContractError, ShapeError
from graphtcn.metrics import kl_diag_gaussian
from graphtcn.model import GraphTCN
from graphtcn.tensor import ParameterStore, Tensor

from oracles import decoder_oracle


class TestSharedNoise:
    def test_shape_and_determinism(self):
        model = GraphTCN(ModelConfig(samples=3))
        z1 = model.draw_noise(np.random.default_rng(9), 5)
        z2 = model.draw_noise(np.random.default_rng(9), 5)
        assert z1.shape == (3, 8, 4)
        assert (z1 == z2).all()

    def test_standard_normal_moments(self):
        rng = np.random.default_rng(10)
        draws = rng.standard_normal(1_000_000)
        assert abs(draws.mean()) < 0.01
        assert abs(draws.var() - 1.0) < 0.01

    def test_all_pedestrians_get_identical_noise(self):
        store = ParameterStore()
        dec = MlpDecoder(store, "dec", 2, 3, 2, 1, np.random.default_rng(11))
        h_row = np.random.default_rng(12).normal(size=(2, 2))
        h = Tensor(np.stack([h_row, h_row]))
        z = np.random.default_rng(13).standard_normal((1, 2, 1))
        out = dec.forward(h, z).data
        assert (out[0, 0] == out[0, 1]).all()


class TestMlpDecoder:
    def test_zero_params_zero_offsets(self):
        store = ParameterStore()
        dec = MlpDecoder(store, "dec", 3, 4, 2, 1, np.random.default_rng(14))
        for _, t in store.items():
            t.data[...] = 0.0
        out = dec.forward(Tensor(np.ones((2, 3, 2))), np.ones((1, 3, 1)))
        np.testing.assert_array_equal(out.data, np.zeros((1, 2, 4, 2)))

    def test_hand_affine_evaluation(self):
        # T_obs=2, F2=1, F3=1, T_pred=1: flattened input is
        # (h0, z0, h1, z1) and each output coordinate is a dot product.
        store = ParameterStore()
        dec = MlpDecoder(store, "dec", 2, 1, 1, 1, np.random.default_rng(15))
        W = np.array([[1.0, 0.5], [2.0, -1.0], [0.25, 0.0], [-0.5, 3.0]])
        store["dec.out.W"].data[...] = W
        store["dec.out.b"].data[...] = [0.1, -0.2]
        h = np.array([[[0.3], [0.7]]])
        z = np.array([[[2.0], [-1.0]]])
        out = dec.forward(Tensor(h), z).data
        flat = np.array([0.3, 2.0, 0.7, -1.0])
        np.testing.assert_allclose(out[0, 0, 0], flat @ W + [0.1, -0.2], rtol=0, atol=1e-15)

    def test_shape_validation(self):
        store = ParameterStore()
        dec = MlpDecoder(store, "dec", 2, 1, 1, 1, np.random.default_rng(16))
        with pytest.raises(ShapeError):
            dec.forward(Tensor(np.zeros((2, 3, 1))), np.zeros((1, 2, 1)))
        with pytest.raises(ShapeError):
            dec.forward(Tensor(np.zeros((2, 2, 1))), np.zeros((1, 3, 1)))
        with pytest.raises(ShapeError):
            dec.forward(Tensor(np.zeros((2, 2, 1))), np.zeros((2, 1)))

    def test_hidden_layer_path(self):
        store = ParameterStore()
        dec = MlpDecoder(store, "dec", 2, 2, 2, 1, np.random.default_rng(17), hidden=5)
        assert "dec.out.hidden.W" in store
        out = dec.forward(Tensor(np.random.default_rng(18).normal(size=(3, 2, 2))),
                          np.zeros((1, 2, 1)))
        assert out.shape == (1, 3, 2, 2)

    def test_gradients_flow(self):
        store = ParameterStore()
        dec = MlpDecoder(store, "dec", 2, 2, 2, 1, np.random.default_rng(19))
        h = np.random.default_rng(20).normal(size=(2, 2, 2))
        z = np.random.default_rng(21).standard_normal((3, 2, 1))

        def f(p):
            out = dec.forward(Tensor(h), z)
            return T.reduce_mean(T.mul(out, out))

        assert T.finite_difference_check(f, store) < 1e-6


class TestPosterior:
    def build(self, seed=22, t_obs=2, t_pred=2, feat=2, latent=3):
        store = ParameterStore()
        dec = CvaeDecoder(store, "dec", t_obs, t_pred, feat, latent,
                          np.random.default_rng(seed))
        return dec, store

    def test_zero_weights_gives_bias_moments(self):
        dec, store = self.build()
        store["dec.posterior.W"].data[...] = 0.0
        store["dec.posterior.b"].data[...] = np.array([1.0, 2.0, 3.0, 0.0, -2.0, 4.0])
        h = Tensor(np.random.default_rng(23).normal(size=(2, 2, 2)))
        mu, sigma, logvar = dec.encode_posterior(dec.flatten_embedding(h),
                                                 Tensor(np.zeros((2, 2, 2))))
        np.testing.assert_array_equal(mu.data, [[1.0, 2.0, 3.0]] * 2)
        np.testing.assert_allclose(sigma.data, np.exp([[0.0, -1.0, 2.0]] * 2), rtol=0, atol=1e-15)

    def test_fresh_decoder_starts_at_unit_sigma(self):
        # Zero-initialized posterior bias means logvar starts at whatever
        # the weights produce; with zero inputs it is exactly sigma = 1.
        dec, _ = self.build()
        h = Tensor(np.zeros((1, 2, 2)))
        _, sigma, logvar = dec.encode_posterior(dec.flatten_embedding(h), Tensor(np.zeros((1, 2, 2))))
        np.testing.assert_array_equal(logvar.data, np.zeros((1, 3)))
        np.testing.assert_array_equal(sigma.data, np.ones((1, 3)))

    def test_sigma_strictly_positive(self):
        dec, store = self.build(seed=24)
        rng = np.random.default_rng(25)
        for _, t in store.items():
            t.data[...] = rng.normal(scale=3.0, size=t.data.shape)
        h = Tensor(rng.normal(size=(3, 2, 2)))
        fut = Tensor(rng.normal(size=(3, 2, 2)))
        _, sigma, _ = dec.encode_posterior(dec.flatten_embedding(h), fut)
        assert (sigma.data > 0).all()

    def test_hand_evaluation_tiny_dims(self):
        # t_obs=1, t_pred=1, feat=1, latent=1: the future flattens to two
        # coordinates, the posterior input is (h, future_enc).
        dec, store = self.build(seed=26, t_obs=1, t_pred=1, feat=1, latent=1)
        store["dec.future.W"].data[...] = [[2.0], [-3.0]]
        store["dec.future.b"].data[...] = [0.5]
        store["dec.posterior.W"].data[...] = [[1.0, -1.0], [0.5, 0.25]]
        store["dec.posterior.b"].data[...] = [0.0, 0.1]
        h = Tensor(np.array([[[3.0]]]))
        fut = Tensor(np.array([[[1.0, 0.25]]]))
        mu, sigma, logvar = dec.encode_posterior(dec.flatten_embedding(h), fut)
        enc = 1.0 * 2.0 + 0.25 * (-3.0) + 0.5
        moments = np.array([3.0, enc]) @ store["dec.posterior.W"].data + [0.0, 0.1]
        np.testing.assert_allclose(mu.data, [[moments[0]]], rtol=0, atol=1e-15)
        np.testing.assert_allclose(logvar.data, [[moments[1]]], rtol=0, atol=1e-15)
        np.testing.assert_allclose(sigma.data, [[np.exp(0.5 * moments[1])]], rtol=0, atol=1e-15)


class TestReparameterize:
    def test_zero_eps_returns_mu(self):
        mu = Tensor([[1.0, 2.0]])
        sigma = Tensor([[3.0, 4.0]])
        z = reparameterize(mu, sigma, np.zeros((1, 1, 2)))
        np.testing.assert_array_equal(z.data[0], mu.data)

    def test_zero_sigma_returns_mu(self):
        mu = Tensor([[1.0, 2.0]])
        z = reparameterize(mu, Tensor(np.zeros((1, 2))), np.ones((1, 1, 2)))
        np.testing.assert_array_equal(z.data[0], mu.data)

    def test_gradients_into_moments(self):
        store = ParameterStore()
        rng = np.random.default_rng(31)
        store.add("mu", rng.normal(size=(2, 3)))
        store.add("sigma", rng.uniform(0.5, 1.5, size=(2, 3)))
        eps = rng.standard_normal((4, 2, 3))

        def f(p):
            z = reparameterize(p["mu"], p["sigma"], eps)
            return T.reduce_mean(T.mul(z, z))

        assert T.finite_difference_check(f, store) < 1e-6


class TestCvaeDecode:
    def test_zero_weights_bias_reshaped(self):
        store = ParameterStore()
        dec = CvaeDecoder(store, "dec", 2, 2, 2, 3, np.random.default_rng(32))
        store["dec.out.W"].data[...] = 0.0
        store["dec.out.b"].data[...] = np.arange(4.0)
        h = Tensor(np.random.default_rng(33).normal(size=(2, 2, 2)))
        out = dec.decode(dec.flatten_embedding(h), Tensor(np.zeros((1, 2, 3))))
        np.testing.assert_array_equal(out.data, np.tile(np.arange(4.0).reshape(2, 2), (1, 2, 1, 1)))

    def test_same_latent_same_output(self):
        store = ParameterStore()
        dec = CvaeDecoder(store, "dec", 2, 2, 2, 3, np.random.default_rng(34))
        rng = np.random.default_rng(35)
        h = Tensor(rng.normal(size=(1, 2, 2)))
        z = Tensor(rng.normal(size=(1, 1, 3)))
        out1 = dec.decode(dec.flatten_embedding(h), z)
        out2 = dec.decode(dec.flatten_embedding(h), z)
        assert (out1.data == out2.data).all()

    def test_latent_shape_checked(self):
        store = ParameterStore()
        dec = CvaeDecoder(store, "dec", 2, 2, 2, 3, np.random.default_rng(36))
        with pytest.raises(ShapeError):
            dec.decode(dec.flatten_embedding(Tensor(np.zeros((1, 2, 2)))),
                       Tensor(np.zeros((1, 1, 4))))

    def test_full_posterior_path_gradients(self):
        store = ParameterStore()
        dec = CvaeDecoder(store, "dec", 2, 2, 2, 3, np.random.default_rng(37))
        rng = np.random.default_rng(38)
        h = rng.normal(size=(2, 2, 2))
        fut = rng.normal(size=(2, 2, 2))
        eps = rng.standard_normal((3, 2, 3))

        def f(p):
            h_flat = dec.flatten_embedding(Tensor(h))
            mu, sigma, _ = dec.encode_posterior(h_flat, Tensor(fut))
            z = reparameterize(mu, sigma, eps)
            out = dec.decode(h_flat, z)
            return T.reduce_mean(T.mul(out, out))

        assert T.finite_difference_check(f, store) < 1e-6


class TestInterface:
    """noise, forward and fit: the one interface GraphTCN calls on either head."""

    def heads(self):
        rng = np.random.default_rng(41)
        return (MlpDecoder(ParameterStore(), "dec", 2, 2, 3, 1, rng),
                CvaeDecoder(ParameterStore(), "dec", 2, 2, 3, 4, rng))

    def test_noise_blocks(self):
        mlp, cvae = self.heads()
        assert mlp.noise(np.random.default_rng(0), 5, 3).shape == (5, 2, 1)
        block = cvae.noise(np.random.default_rng(0), 5, 3)
        rng = np.random.default_rng(0)
        assert np.array_equal(block, np.stack([rng.standard_normal((3, 4)) for _ in range(5)]))

    def test_mlp_fit_is_the_prior_path_without_kl(self):
        mlp, _ = self.heads()
        rng = np.random.default_rng(42)
        h = Tensor(rng.normal(size=(3, 2, 3)))
        noise = mlp.noise(rng, 4, 3)
        delta, kl = mlp.fit(h, noise, rng.normal(size=(3, 2, 2)))
        assert kl is None
        assert np.array_equal(delta.data, mlp.forward(h, noise).data)

    def test_cvae_forward_decodes_the_prior_latent(self):
        _, cvae = self.heads()
        rng = np.random.default_rng(43)
        h = Tensor(rng.normal(size=(3, 2, 3)))
        z = cvae.noise(rng, 4, 3)
        want = cvae.decode(cvae.flatten_embedding(h), Tensor(z))
        assert np.array_equal(cvae.forward(h, z).data, want.data)

    def test_cvae_fit_decodes_the_posterior_and_returns_its_kl(self):
        _, cvae = self.heads()
        rng = np.random.default_rng(44)
        h = Tensor(rng.normal(size=(3, 2, 3)))
        future = rng.normal(size=(3, 2, 2))
        eps = cvae.noise(rng, 4, 3)
        delta, kl = cvae.fit(h, eps, future)
        h_flat = cvae.flatten_embedding(h)
        mu, sigma, logvar = cvae.encode_posterior(h_flat, Tensor(future))
        assert np.array_equal(delta.data, cvae.decode(h_flat, reparameterize(mu, sigma, eps)).data)
        assert kl.item() == kl_diag_gaussian(mu, sigma, logvar).item() > 0.0


class TestSplitHead:
    """Both heads against the concat-form loop oracle, with and without
    the hidden layer, and gradients through both blocks of the split
    first affine, the embedding included."""

    @pytest.mark.parametrize("hidden", [0, 5])
    def test_mlp_matches_concat_oracle(self, hidden):
        store = ParameterStore()
        dec = MlpDecoder(store, "dec", 3, 4, 5, 2, np.random.default_rng(60), hidden=hidden)
        rng = np.random.default_rng(61)
        h = rng.normal(size=(6, 3, 5))
        noise = rng.standard_normal((4, 3, 2))
        out = dec.forward(Tensor(h), noise).data
        expected = decoder_oracle(h, noise, store, "dec.out")
        assert out.shape == expected.shape == (4, 6, 4, 2)
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("hidden", [0, 5])
    def test_cvae_matches_concat_oracle(self, hidden):
        store = ParameterStore()
        dec = CvaeDecoder(store, "dec", 3, 4, 5, 2, np.random.default_rng(62), hidden=hidden)
        rng = np.random.default_rng(63)
        h_flat = rng.normal(size=(6, 15))
        z = rng.standard_normal((4, 6, 2))
        out = dec.decode(Tensor(h_flat), Tensor(z)).data
        expected = decoder_oracle(h_flat, z, store, "dec.out")
        assert out.shape == expected.shape == (4, 6, 4, 2)
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("hidden", [0, 3])
    def test_mlp_gradients(self, hidden):
        store = ParameterStore()
        dec = MlpDecoder(store, "dec", 2, 2, 3, 2, np.random.default_rng(64), hidden=hidden)
        rng = np.random.default_rng(65)
        store.add("h", rng.normal(size=(3, 2, 3)))
        noise = rng.standard_normal((2, 2, 2))

        def f(p):
            out = dec.forward(p["h"], noise)
            return T.reduce_mean(T.mul(out, T.tanh(out)))

        assert T.finite_difference_check(f, store) < 1e-6

    @pytest.mark.parametrize("hidden", [0, 3])
    def test_cvae_gradients(self, hidden):
        store = ParameterStore()
        dec = CvaeDecoder(store, "dec", 2, 2, 3, 2, np.random.default_rng(66), hidden=hidden)
        rng = np.random.default_rng(67)
        store.add("h_flat", rng.normal(size=(3, 6)))
        store.add("z", rng.normal(size=(2, 3, 2)))

        def f(p):
            out = dec.decode(p["h_flat"], p["z"])
            return T.reduce_mean(T.mul(out, T.tanh(out)))

        assert T.finite_difference_check(f, store) < 1e-6


class TestAbsoluteConversion:
    def test_zero_offsets_stay_at_origin(self):
        origin = np.array([[2.0, 3.0], [1.0, -1.0]])
        out = relative_to_absolute(Tensor(np.zeros((2, 4, 2))), origin)
        for t in range(4):
            np.testing.assert_array_equal(out.data[:, t], origin)

    def test_vector_addition(self):
        origin = np.array([[2.0, 3.0]])
        delta = np.zeros((1, 2, 2))
        delta[0, 0] = [1.0, 0.0]
        out = relative_to_absolute(Tensor(delta), origin)
        np.testing.assert_array_equal(out.data[0, 0], [3.0, 3.0])

    def test_round_trip_on_grid(self):
        rng = np.random.default_rng(39)
        origin = rng.integers(-2048, 2048, size=(3, 2)) / 1024.0
        delta = rng.integers(-512, 512, size=(3, 4, 2)) / 1024.0
        out = relative_to_absolute(Tensor(delta), origin).data
        np.testing.assert_array_equal(out - origin[:, None, :], delta)

    def test_leading_sample_axis(self):
        rng = np.random.default_rng(40)
        origin = rng.normal(size=(3, 2))
        delta = rng.normal(size=(2, 3, 4, 2))
        out = relative_to_absolute(Tensor(delta), origin).data
        for m in range(2):
            np.testing.assert_array_equal(out[m], relative_to_absolute(Tensor(delta[m]), origin).data)

    def test_origin_shape_checked(self):
        with pytest.raises(ShapeError):
            relative_to_absolute(Tensor(np.zeros((2, 3, 2))), np.zeros((3, 2)))


class TestPredictionSet:
    @pytest.mark.parametrize("shape", [(0, 1, 3, 2), (1, 3, 2)])
    def test_needs_a_4d_block_with_a_sample(self, shape):
        with pytest.raises(ContractError, match="expected"):
            PredictionSet(np.zeros(shape))

    def test_sample_count_is_the_leading_axis(self):
        assert PredictionSet(np.zeros((3, 1, 2, 2))).sample_count == 3

    def test_rejects_non_finite(self):
        bad = np.zeros((1, 1, 3, 2))
        bad[0, 0, 0, 0] = np.nan
        with pytest.raises(ContractError):
            PredictionSet(bad)
