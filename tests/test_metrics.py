"""Metrics and objectives against direct-summation and Monte-Carlo oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphtcn import tensor as T
from graphtcn.decoders import PredictionSet
from graphtcn.errors import ContractError, DomainError, ShapeError
from graphtcn.metrics import (
    LossWeights,
    ade,
    ade_value,
    combined_loss,
    evaluate_min_of_m,
    fde,
    fde_value,
    kl_diag_gaussian,
    variety_loss,
)
from graphtcn.tensor import Tensor

from oracles import ade_oracle, fde_oracle, kl_mc_oracle


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


class TestKl:
    def test_standard_normal_is_zero(self):
        mu = Tensor(np.zeros((2, 3)))
        sigma = Tensor(np.ones((2, 3)))
        assert kl_diag_gaussian(mu, sigma).item() == 0.0

    def test_unit_mean_closed_form(self):
        assert kl_diag_gaussian(Tensor([[1.0]]), Tensor([[1.0]])).item() == 0.5

    def test_nonnegative_random(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            mu = Tensor(rng.uniform(-2, 2, size=(3, 4)))
            sigma = Tensor(rng.uniform(0.1, 3.0, size=(3, 4)))
            assert kl_diag_gaussian(mu, sigma).item() >= 0.0

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(DomainError):
            kl_diag_gaussian(Tensor([[0.0]]), Tensor([[0.0]]))

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(11)
        mu = rng.uniform(-2, 2, size=(2, 3))
        logvar = 2.0 * np.log(rng.uniform(0.1, 3.0, size=(2, 3)))
        closed = kl_diag_gaussian(Tensor(mu), Tensor(np.exp(0.5 * logvar))).item()
        mc = np.mean([
            kl_mc_oracle(mu[i], logvar[i], 1_000_000, seed=100 + i)
            for i in range(2)
        ])
        assert abs(closed - mc) < 1e-2

    def test_averaged_over_pedestrians(self):
        mu_row = np.array([1.0, 0.5])
        sigma_row = np.array([1.0, 2.0])
        single = kl_diag_gaussian(Tensor([mu_row]), Tensor([sigma_row])).item()
        tripled = kl_diag_gaussian(Tensor(np.tile(mu_row, (3, 1))),
                                   Tensor(np.tile(sigma_row, (3, 1)))).item()
        assert single == pytest.approx(tripled, abs=1e-15)

    def test_gradient(self):
        rng = np.random.default_rng(12)
        store = T.ParameterStore()
        store.add("mu", rng.uniform(-1, 1, size=(2, 3)))
        store.add("sigma", rng.uniform(0.5, 2.0, size=(2, 3)))

        def f(p):
            return kl_diag_gaussian(p["mu"], p["sigma"])

        assert T.finite_difference_check(f, store) < 1e-6


class TestCombined:
    def test_early_epoch_weight(self):
        out = combined_loss(Tensor(1.0), Tensor(0.5), LossWeights(), epoch=10)
        assert out.item() == 1.25

    def test_late_epoch_weight(self):
        out = combined_loss(Tensor(1.0), Tensor(0.5), LossWeights(), epoch=20)
        assert out.item() == pytest.approx(1.10, abs=1e-15)

    def test_switch_boundary(self):
        w = LossWeights()
        assert combined_loss(Tensor(1.0), Tensor(1.0), w, 15).item() == 1.5
        assert combined_loss(Tensor(1.0), Tensor(1.0), w, 16).item() == 1.2

    def test_no_kl_term(self):
        out = combined_loss(Tensor(0.75), None, LossWeights(), epoch=3)
        assert out.item() == 0.75

    def test_zero_kl_equals_variety(self):
        out = combined_loss(Tensor(0.75), Tensor(0.0), LossWeights(), epoch=3)
        assert out.item() == 0.75

    @given(st.floats(0, 10), st.floats(0, 10), st.floats(0, 10), st.integers(1, 50))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_both_inputs(self, v, k, bump, epoch):
        w = LossWeights()
        base = combined_loss(Tensor(v), Tensor(k), w, epoch).item()
        assert combined_loss(Tensor(v + bump), Tensor(k), w, epoch).item() >= base
        assert combined_loss(Tensor(v), Tensor(k + bump), w, epoch).item() >= base

    def test_negative_weights_rejected(self):
        with pytest.raises(ContractError):
            LossWeights(kl_early=-1.0)
        with pytest.raises(ContractError):
            LossWeights(kl_late=-1.0)

    def test_bad_epoch(self):
        with pytest.raises(ContractError):
            combined_loss(Tensor(1.0), Tensor(1.0), LossWeights(), epoch=0)


class TestEvaluateMinOfM:
    def test_perfect_sample(self):
        rng = np.random.default_rng(13)
        gt = rng.normal(size=(2, 3, 2))
        trajs = np.stack([rng.normal(size=(2, 3, 2)), gt])
        ps = PredictionSet(trajs, gt[:, 0], 2)
        a, f = evaluate_min_of_m(ps, gt)
        assert a == 0.0 and f == 0.0

    def test_single_sample_plain_metrics(self):
        rng = np.random.default_rng(14)
        gt = rng.normal(size=(3, 4, 2))
        pred = rng.normal(size=(3, 4, 2))
        ps = PredictionSet(pred[None], gt[:, 0], 1)
        a, f = evaluate_min_of_m(ps, gt)
        assert a == ade_value(pred, gt) and f == fde_value(pred, gt)

    def test_independent_minima(self):
        # Sample A: best ADE, bad FDE. Sample B: bad ADE, best FDE.
        gt = np.zeros((1, 2, 2))
        a = np.array([[[0.0, 0.0], [0.0, 2.0]]])   # ADE 1.0, FDE 2.0
        b = np.array([[[0.0, 4.0], [0.0, 1.0]]])   # ADE 2.5, FDE 1.0
        ps = PredictionSet(np.stack([a, b]), gt[:, 0], 2)
        best_a, best_f = evaluate_min_of_m(ps, gt)
        assert best_a == 1.0 and best_f == 1.0
