"""Metrics and objectives against direct-summation and Monte-Carlo oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphtcn import tensor as T
from graphtcn.config import VARIANTS, ModelConfig
from graphtcn.data import SequenceWindow
from graphtcn.errors import ConfigError, ContractError, DomainError, ShapeError
from graphtcn.metrics import (
    PredictionSet, ade, evaluate_min_of_m, fde, kl_diag_gaussian, variety_loss,
)
from graphtcn.model import GraphTCN
from graphtcn.tensor import Tensor

from oracles import ade_oracle, fde_oracle, kl_mc_oracle, min_of_m_oracle


class TestAde:
    def test_exact_match_is_zero(self):
        x = np.random.default_rng(0).normal(size=(3, 4, 2))
        assert ade(Tensor(x), Tensor(x.copy())).item() == 0.0

    def test_hand_value(self):
        gt = np.zeros((1, 2, 2))
        pred = np.array([[[3.0, 4.0], [0.0, 0.0]]])
        assert ade(Tensor(pred), Tensor(gt)).item() == 2.5

    def test_duplicate_pedestrian_invariant(self):
        rng = np.random.default_rng(1)
        p, g = rng.normal(size=(1, 5, 2)), rng.normal(size=(1, 5, 2))
        single = ade(Tensor(p), Tensor(g)).item()
        double = ade(Tensor(np.concatenate([p, p])), Tensor(np.concatenate([g, g]))).item()
        assert single == pytest.approx(double, abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ade(Tensor(np.zeros((2, 3, 2))), Tensor(np.zeros((2, 4, 2))))

    def test_matches_loop_oracle_100_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n, t = int(rng.integers(1, 6)), int(rng.integers(1, 8))
            p, g = rng.normal(size=(n, t, 2)), rng.normal(size=(n, t, 2))
            assert abs(ade(Tensor(p), Tensor(g)).item() - ade_oracle(p, g)) < 1e-12

    def test_gradient(self):
        rng = np.random.default_rng(3)
        store = T.ParameterStore()
        store.add("p", rng.normal(size=(2, 3, 2)))
        gt = rng.normal(size=(2, 3, 2))

        def f(params):
            return ade(params["p"], Tensor(gt))

        assert T.finite_difference_check(f, store) < 1e-6


@pytest.mark.parametrize("metric,value,grad", [
    (ade, 3.75, [[[0.15, 0.2], [0.0, 0.0]], [[0.0, 0.0], [0.15, 0.2]]]),
    (fde, 5.0, [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.3, 0.4]]]),
], ids=["ade", "fde"])
def test_gradient_is_zero_where_the_prediction_meets_the_target(metric, value, grad):
    # Pedestrian 0 meets the target at its last step, pedestrian 1 at its
    # first. A distance has no derivative at 0; as in the variety loss,
    # such a step takes gradient 0, not 0 / 0.
    store = T.ParameterStore()
    p = store.add("p", [[[3.0, 4.0], [0.0, 0.0]], [[0.0, 0.0], [6.0, 8.0]]])
    with T.Tape() as tape:
        loss = metric(p, Tensor(np.zeros((2, 2, 2))))
    T.backward(loss, tape)
    assert loss.item() == value
    assert np.isfinite(p.grad).all()
    assert (p.grad[0, 1] == 0.0).all() and (p.grad[1, 0] == 0.0).all()
    np.testing.assert_allclose(p.grad, grad, rtol=1e-15, atol=0)


class TestFde:
    def test_exact_match_is_zero(self):
        x = np.random.default_rng(4).normal(size=(2, 5, 2))
        assert fde(Tensor(x), Tensor(x.copy())).item() == 0.0

    def test_three_four_five(self):
        gt = np.zeros((1, 3, 2))
        pred = np.zeros((1, 3, 2))
        pred[0, -1] = [3.0, 4.0]
        assert fde(Tensor(pred), Tensor(gt)).item() == 5.0

    def test_ignores_non_final_steps(self):
        rng = np.random.default_rng(5)
        gt = rng.normal(size=(2, 4, 2))
        pred = rng.normal(size=(2, 4, 2))
        base = fde(Tensor(pred), Tensor(gt)).item()
        pred2 = pred.copy()
        pred2[:, :-1] += rng.normal(size=(2, 3, 2))
        assert fde(Tensor(pred2), Tensor(gt)).item() == base

    def test_matches_loop_oracle_100_instances(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n, t = int(rng.integers(1, 6)), int(rng.integers(1, 8))
            p, g = rng.normal(size=(n, t, 2)), rng.normal(size=(n, t, 2))
            assert abs(fde(Tensor(p), Tensor(g)).item() - fde_oracle(p, g)) < 1e-12


class TestVariety:
    def test_perfect_sample_gives_zero(self):
        rng = np.random.default_rng(7)
        gt = rng.normal(size=(2, 3, 2))
        samples = [Tensor(rng.normal(size=(2, 3, 2))), Tensor(gt.copy())]
        assert variety_loss(samples, Tensor(gt)).item() == 0.0

    def test_single_sample_equals_ade(self):
        rng = np.random.default_rng(8)
        p, g = rng.normal(size=(3, 4, 2)), rng.normal(size=(3, 4, 2))
        assert variety_loss([Tensor(p)], Tensor(g)).item() == ade(Tensor(p), Tensor(g)).item()

    def test_picks_minimum_exactly(self):
        # Construct samples with ADEs 2.5, 1.0, 4.0: constant per-step
        # offsets (0, d) give ADE d exactly.
        gt = np.zeros((1, 4, 2))
        mk = lambda d: Tensor(np.tile([0.0, d], (1, 4, 1)))
        loss = variety_loss([mk(2.5), mk(1.0), mk(4.0)], Tensor(gt))
        assert loss.item() == 1.0

    def test_minimum_never_exceeds_any_sample(self):
        rng = np.random.default_rng(9)
        gt = Tensor(rng.normal(size=(2, 3, 2)))
        samples = [Tensor(rng.normal(size=(2, 3, 2))) for _ in range(5)]
        v = variety_loss(samples, gt).item()
        per = [ade(s, gt).item() for s in samples]
        assert all(v <= a for a in per)
        assert v == min(per)

    def test_gradient_only_through_argmin(self):
        gt = np.zeros((1, 2, 2))
        near = np.full((1, 2, 2), 0.1)
        far = np.full((1, 2, 2), 5.0)
        store = T.ParameterStore()
        p_near = store.add("near", near)
        p_far = store.add("far", far)
        with T.Tape() as tape:
            loss = variety_loss([p_near, p_far], Tensor(gt))
        store.zero_grads()
        T.backward(loss, tape)
        assert (p_near.grad != 0).any()
        assert (p_far.grad == 0).all()

    def test_gradient_is_finite_where_a_draw_meets_the_target(self):
        # Draw 0 wins (ADE 0.125) and meets the target at step 0; the losing
        # draw 1 meets it at step 1. The unfused chain's sqrt gradient was
        # 0 * 0.5 / 0 = NaN at both steps, and Adam spread that NaN to every
        # decoder weight. A step at distance 0 now takes gradient 0.
        store = T.ParameterStore()
        p = store.add("x", [[[[0.0, 0.0], [0.0, 0.25]]], [[[0.0, 5.0], [0.0, 0.0]]]])
        with T.Tape() as tape:
            loss = variety_loss(T.reshape(p, p.shape), Tensor(np.zeros((1, 2, 2))))
        T.backward(loss, tape)
        assert loss.item() == 0.125
        assert p.grad.tolist() == [[[[0.0, 0.0], [0.0, 0.5]]], [[[0.0, 0.0], [0.0, 0.0]]]]

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            variety_loss([], Tensor(np.zeros((1, 2, 2))))

    def test_stacked_tensor_equals_list(self):
        rng = np.random.default_rng(10)
        gt = Tensor(rng.normal(size=(3, 4, 2)))
        samples = rng.normal(size=(5, 3, 4, 2))
        stacked = variety_loss(Tensor(samples), gt).item()
        assert stacked == variety_loss([Tensor(s) for s in samples], gt).item()
        with pytest.raises(ShapeError):
            variety_loss(Tensor(samples[:, :2]), gt)


def kl(mu, sigma):
    """kl_diag_gaussian with its log-variance taken from sigma on the tape."""
    return kl_diag_gaussian(mu, sigma, T.mul(T.log(sigma), 2.0))


class TestKl:
    def test_standard_normal_is_zero(self):
        mu = Tensor(np.zeros((2, 3)))
        sigma = Tensor(np.ones((2, 3)))
        assert kl(mu, sigma).item() == 0.0

    def test_unit_mean_closed_form(self):
        assert kl(Tensor([[1.0]]), Tensor([[1.0]])).item() == 0.5

    def test_nonnegative_random(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            mu = Tensor(rng.uniform(-2, 2, size=(3, 4)))
            sigma = Tensor(rng.uniform(0.1, 3.0, size=(3, 4)))
            assert kl(mu, sigma).item() >= 0.0

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(DomainError):
            kl_diag_gaussian(Tensor([[0.0]]), Tensor([[0.0]]), Tensor([[-np.inf]]))

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(11)
        mu = rng.uniform(-2, 2, size=(2, 3))
        logvar = 2.0 * np.log(rng.uniform(0.1, 3.0, size=(2, 3)))
        closed = kl(Tensor(mu), Tensor(np.exp(0.5 * logvar))).item()
        mc = np.mean([
            kl_mc_oracle(mu[i], logvar[i], 1_000_000, seed=100 + i)
            for i in range(2)
        ])
        assert abs(closed - mc) < 1e-2

    def test_averaged_over_pedestrians(self):
        mu_row = np.array([1.0, 0.5])
        sigma_row = np.array([1.0, 2.0])
        single = kl(Tensor([mu_row]), Tensor([sigma_row])).item()
        tripled = kl(Tensor(np.tile(mu_row, (3, 1))), Tensor(np.tile(sigma_row, (3, 1)))).item()
        assert single == pytest.approx(tripled, abs=1e-15)

    def test_gradient(self):
        rng = np.random.default_rng(12)
        store = T.ParameterStore()
        store.add("mu", rng.uniform(-1, 1, size=(2, 3)))
        store.add("sigma", rng.uniform(0.5, 2.0, size=(2, 3)))

        def f(p):
            return kl(p["mu"], p["sigma"])

        assert T.finite_difference_check(f, store) < 1e-6


def small_window_loss(variant: str, epoch: int, **over):
    """window_loss of a small untrained model on one random 3-pedestrian window."""
    cfg = ModelConfig(t_obs=4, t_pred=3, embed_dim=8, gal1_heads=1, gal1_out=4, gal2_heads=1,
                      gal2_out=4, tcn_channels=4, tcn_layers=2, tcn_kernel=2, noise_dim=2,
                      future_embed_dim=3, samples=2, variant=variant, **over)
    model = GraphTCN(cfg)
    rng = np.random.default_rng(5)
    window = SequenceWindow("synth", 0, rng.normal(size=(3, 7, 2)), (1, 2, 3))
    return model.window_loss(window, epoch, model.draw_noise(rng, 3))


class TestCombined:
    """The objective window_loss builds: the variety loss, plus for the
    latent variant the KL term weighted by the config's schedule."""

    def test_early_epoch_weight(self):
        cfg = ModelConfig()
        assert cfg.kl_weight(1) == cfg.kl_weight(10) == 0.5
        loss, parts = small_window_loss("graphtcn_g", 10)
        assert loss.item() == parts["variety"] + 0.5 * parts["kl"]

    def test_late_epoch_weight(self):
        assert ModelConfig().kl_weight(20) == ModelConfig().kl_weight(50) == 0.2
        loss, parts = small_window_loss("graphtcn_g", 20)
        assert loss.item() == parts["variety"] + 0.2 * parts["kl"]

    def test_switch_boundary(self):
        cfg = ModelConfig()
        assert (cfg.kl_weight(15), cfg.kl_weight(16)) == (0.5, 0.2)
        cfg = ModelConfig(kl_weight_early=0.75, kl_weight_late=0.125, kl_switch_epoch=3)
        assert (cfg.kl_weight(3), cfg.kl_weight(4)) == (0.75, 0.125)

    def test_no_kl_term(self):
        for variant in ("graphtcn", "no_efgat", "vanilla_gat"):
            loss, parts = small_window_loss(variant, 3)
            assert parts["kl"] == 0.0 and loss.item() == parts["variety"], variant

    def test_zero_kl_equals_variety(self):
        loss, parts = small_window_loss("graphtcn_g", 3, kl_weight_early=0.0)
        assert parts["kl"] > 0.0
        assert loss.item() == parts["variety"]

    @given(st.floats(0, 10), st.floats(0, 10), st.integers(1, 30))
    @settings(max_examples=20, deadline=None)
    def test_monotone_in_both_inputs(self, weight, bump, epoch):
        # The KL term is nonnegative, so the loss never falls below the
        # variety term and never falls as the weight of the KL term rises.
        low, parts = small_window_loss("graphtcn_g", epoch, kl_weight_early=weight,
                                       kl_weight_late=weight)
        high, _ = small_window_loss("graphtcn_g", epoch, kl_weight_early=weight + bump,
                                    kl_weight_late=weight + bump)
        assert parts["variety"] <= low.item() <= high.item()

    def test_negative_weights_rejected(self):
        with pytest.raises(ConfigError, match="kl_weight_early"):
            ModelConfig(kl_weight_early=-1.0)
        with pytest.raises(ConfigError, match="kl_weight_late"):
            ModelConfig(kl_weight_late=-1.0)

    def test_bad_epoch(self):
        for variant in VARIANTS:
            with pytest.raises(ContractError, match="epoch"):
                small_window_loss(variant, 0)


class TestEvaluateMinOfM:
    def test_perfect_sample(self):
        rng = np.random.default_rng(13)
        gt = rng.normal(size=(2, 3, 2))
        trajs = np.stack([rng.normal(size=(2, 3, 2)), gt])
        ps = PredictionSet(trajs)
        a, f = evaluate_min_of_m(ps, gt)
        assert a == 0.0 and f == 0.0

    def test_single_sample_plain_metrics(self):
        rng = np.random.default_rng(14)
        gt = rng.normal(size=(3, 4, 2))
        pred = rng.normal(size=(3, 4, 2))
        ps = PredictionSet(pred[None])
        a, f = evaluate_min_of_m(ps, gt)
        assert abs(a - ade_oracle(pred, gt)) <= 1e-12 and abs(f - fde_oracle(pred, gt)) <= 1e-12

    def test_ground_truth_shape_must_match(self):
        ps = PredictionSet(np.zeros((4, 3, 12, 2)))
        with pytest.raises(ShapeError):
            evaluate_min_of_m(ps, np.ones((1, 12, 2)))

    @pytest.mark.parametrize("m", [1, 4, 20])
    @pytest.mark.parametrize("n", [1, 5, 64])
    def test_one_pass_matches_per_sample_loop(self, m, n):
        rng = np.random.default_rng(100 * m + n)
        gt = rng.normal(size=(n, 12, 2)) * 5.0
        trajs = gt + rng.normal(size=(m, n, 12, 2))
        a, f = evaluate_min_of_m(PredictionSet(trajs), gt)
        ref_a, ref_f = min_of_m_oracle(trajs, gt)
        assert abs(a - ref_a) <= 1e-12 and abs(f - ref_f) <= 1e-12

    def test_independent_minima(self):
        # Sample A: best ADE, bad FDE. Sample B: bad ADE, best FDE.
        gt = np.zeros((1, 2, 2))
        a = np.array([[[0.0, 0.0], [0.0, 2.0]]])   # ADE 1.0, FDE 2.0
        b = np.array([[[0.0, 4.0], [0.0, 1.0]]])   # ADE 2.5, FDE 1.0
        ps = PredictionSet(np.stack([a, b]))
        best_a, best_f = evaluate_min_of_m(ps, gt)
        assert best_a == 1.0 and best_f == 1.0
