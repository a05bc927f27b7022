"""Displacement metrics and training objectives.

Differentiable paths (used in the loss) run on the autodiff ops; the
plain-number evaluation helpers at the bottom work on numpy arrays and
are what the reporting code calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .decoders import PredictionSet
from .errors import ContractError, DomainError, ShapeError


@dataclass(frozen=True)
class LossWeights:
    """KL weights of the latent variant; the term decays after the switch epoch."""

    kl_early: float = 0.5
    kl_late: float = 0.2
    switch_epoch: int = 15

    def kl_at(self, epoch: int) -> float:
        return self.kl_early if epoch <= self.switch_epoch else self.kl_late

    def __post_init__(self):
        if self.kl_early < 0 or self.kl_late < 0:
            raise ContractError("loss weights must be nonnegative")


def _check_pair(pred: T.Tensor, gt: T.Tensor):
    if pred.data.shape != gt.data.shape:
        raise ShapeError(f"prediction {pred.shape} vs ground truth {gt.shape}")
    if pred.data.ndim != 3 or pred.data.shape[2] != 2:
        raise ShapeError(f"trajectories must be [N, T, 2], got {pred.shape}")


def _step_distances(pred: T.Tensor, gt: T.Tensor) -> T.Tensor:
    """Euclidean distance per step over the last axis: [..., T, 2] -> [..., T]."""
    diff = T.sub(pred, gt)
    return T.sqrt(T.reduce_sum(T.mul(diff, diff), axis=-1))


def ade(pred: T.Tensor, gt: T.Tensor) -> T.Tensor:
    """Mean Euclidean displacement error over all pedestrians and steps."""
    _check_pair(pred, gt)
    return T.reduce_mean(_step_distances(pred, gt))


def fde(pred: T.Tensor, gt: T.Tensor) -> T.Tensor:
    """Mean Euclidean error at the final predicted step."""
    _check_pair(pred, gt)
    t = pred.data.shape[1]
    last_p = T.slice_axis(pred, 1, t - 1, t)
    last_g = T.slice_axis(gt, 1, t - 1, t)
    return T.reduce_mean(_step_distances(last_p, last_g))


def variety_loss(samples, gt: T.Tensor) -> T.Tensor:
    """Minimum per-sample ADE; gradient reaches only the best sample.

    ``samples`` is [M, N, T, 2] (a list of [N, T, 2] tensors is stacked
    first); ``gt`` is the constant target [N, T, 2]. Ties resolve to the
    lowest sample index via the min reduction's deterministic arg-min
    routing.
    """
    if isinstance(samples, (list, tuple)):
        if not samples:
            raise ContractError("variety loss needs at least one sample")
        samples = T.stack(samples)
    if samples.data.ndim != 4 or samples.data.shape[1:] != gt.data.shape or gt.data.shape[-1] != 2:
        raise ShapeError(f"samples {samples.shape} vs ground truth {gt.shape}, expected [M, N, T, 2]")
    m = samples.data.shape[0]
    dist = _step_distances(samples, T.Tensor(np.broadcast_to(gt.data, samples.data.shape)))
    return T.reduce_min(T.reduce_mean(T.reshape(dist, (m, -1)), axis=1))


def kl_diag_gaussian(mu: T.Tensor, sigma: T.Tensor, logvar: T.Tensor = None) -> T.Tensor:
    """KL from N(mu, diag sigma^2) to the standard normal, closed form.

    Inputs are [N, D]; the per-pedestrian divergences are averaged so the
    weight in the combined objective does not scale with crowd size.
    ``logvar`` may be passed to reuse the tape node that produced sigma;
    otherwise it is recomputed as 2*log(sigma).
    """
    if (sigma.data <= 0).any():
        raise DomainError("sigma must be strictly positive")
    if mu.data.shape != sigma.data.shape or mu.data.ndim != 2:
        raise ShapeError(f"mu {mu.shape} vs sigma {sigma.shape}, expected [N, D]")
    if logvar is None:
        logvar = T.mul(T.log(sigma), 2.0)
    n = mu.data.shape[0]
    mu2 = T.mul(mu, mu)
    sig2 = T.mul(sigma, sigma)
    inner = T.sub(T.sub(T.add(mu2, sig2), T.Tensor(np.ones_like(mu.data))), logvar)
    per_ped = T.reduce_sum(inner, axis=1)
    return T.mul(T.reduce_mean(per_ped), 0.5)


def combined_loss(variety: T.Tensor, kl: T.Tensor, weights: LossWeights, epoch: int) -> T.Tensor:
    """Variety loss plus the epoch-scheduled KL term (none without a latent)."""
    if epoch < 1:
        raise ContractError(f"epoch must be >= 1, got {epoch}")
    if kl is None:
        return variety
    return T.add(variety, T.mul(kl, weights.kl_at(epoch)))


# ---------------------------------------------------------------------------
# Plain-number evaluation (no tape)


def ade_value(pred: np.ndarray, gt: np.ndarray) -> float:
    d = np.linalg.norm(pred - gt, axis=-1)
    return float(d.mean())


def fde_value(pred: np.ndarray, gt: np.ndarray) -> float:
    d = np.linalg.norm(pred[:, -1] - gt[:, -1], axis=-1)
    return float(d.mean())


def evaluate_min_of_m(pred_set: PredictionSet, gt: np.ndarray) -> tuple:
    """Best-of-M ADE and FDE, minima taken independently per metric."""
    if pred_set.sample_count < 1:
        raise ContractError("need at least one sample")
    ades = [ade_value(pred_set.trajectories[m], gt) for m in range(pred_set.sample_count)]
    fdes = [fde_value(pred_set.trajectories[m], gt) for m in range(pred_set.sample_count)]
    return min(ades), min(fdes)
