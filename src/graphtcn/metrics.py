"""Displacement metrics, the two training loss terms, and PredictionSet.

The differentiable terms (variety and KL, which GraphTCN.window_loss
combines) run on the autodiff ops. Every displacement error here, ADE,
FDE, the variety loss and the plain-number best-of-M evaluation at the
bottom that the reporting code calls, is one fused best_of_m_ade op.
That evaluation scores the trajectories of one window, or of every
window of a bucket at once, and a ``PredictionSet``, which
``GraphTCN.predict`` returns and the trajectory dump writes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError, DomainError, ShapeError


def _check_pair(pred: T.Tensor, gt: T.Tensor):
    if pred.data.shape != gt.data.shape:
        raise ShapeError(f"prediction {pred.shape} vs ground truth {gt.shape}")
    if pred.data.ndim != 3 or pred.data.shape[2] != 2:
        raise ShapeError(f"trajectories must be [N, T, 2], got {pred.shape}")


def ade(pred: T.Tensor, gt: T.Tensor) -> T.Tensor:
    """Mean Euclidean displacement error over all pedestrians and steps:
    ``best_of_m_ade`` of the one-draw stack. A step where ``pred`` meets
    ``gt`` takes gradient 0."""
    _check_pair(pred, gt)
    return T.best_of_m_ade(T.reshape(pred, (1,) + pred.data.shape), gt.data)


def fde(pred: T.Tensor, gt: T.Tensor) -> T.Tensor:
    """Mean Euclidean error at the final predicted step."""
    _check_pair(pred, gt)
    t = pred.data.shape[1]
    return ade(T.slice_axis(pred, 1, t - 1, t), T.Tensor(gt.data[:, -1:]))


def variety_loss(samples, gt: T.Tensor) -> T.Tensor:
    """Minimum per-sample ADE; gradient reaches only the best sample.

    ``samples`` is [M, N, T, 2] (a list of [N, T, 2] tensors is stacked
    first); ``gt`` is the constant target [N, T, 2]. Ties resolve to the
    lowest sample index. A step where a sample meets the target takes
    gradient 0 (see ``best_of_m_ade``).
    """
    if isinstance(samples, (list, tuple)):
        if not samples:
            raise ContractError("variety loss needs at least one sample")
        samples = T.stack(samples)
    return T.best_of_m_ade(samples, gt.data)


def kl_diag_gaussian(mu: T.Tensor, sigma: T.Tensor, logvar: T.Tensor) -> T.Tensor:
    """KL from N(mu, diag sigma^2) to the standard normal, closed form.

    Inputs are [N, D]; the per-pedestrian divergences are averaged so the
    weight in the combined objective does not scale with crowd size.
    ``logvar`` is log(sigma^2), the tape node that sigma was computed from.
    """
    if (sigma.data <= 0).any():
        raise DomainError("sigma must be strictly positive")
    if mu.data.shape != sigma.data.shape or mu.data.ndim != 2:
        raise ShapeError(f"mu {mu.shape} vs sigma {sigma.shape}, expected [N, D]")
    mu2 = T.mul(mu, mu)
    sig2 = T.mul(sigma, sigma)
    inner = T.sub(T.sub(T.add(mu2, sig2), T.Tensor(np.ones_like(mu.data))), logvar)
    per_ped = T.reduce_sum(inner, axis=1)
    return T.mul(T.reduce_mean(per_ped), 0.5)


# ---------------------------------------------------------------------------
# Plain-number evaluation


@dataclass
class PredictionSet:
    """M sampled future trajectories in absolute world coordinates."""

    trajectories: np.ndarray  # [M, N, T_pred, 2]

    def __post_init__(self):
        self.trajectories = np.asarray(self.trajectories, dtype=np.float64)
        if self.trajectories.ndim != 4 or self.trajectories.shape[0] < 1:
            raise ContractError(f"trajectories {self.trajectories.shape}, expected [M >= 1, N, T, 2]")
        if not np.isfinite(self.trajectories).all():
            raise ContractError("non-finite prediction")


def min_of_m(trajectories: np.ndarray, gt: np.ndarray) -> tuple:
    """Best-of-M ADE and FDE of each window, minima taken independently per
    metric: one ``best_of_m_ade`` over all steps, one over the last step.
    ``trajectories`` [M, ..., N, T, 2] against ``gt`` [..., N, T, 2]; both
    results have the shape of gt's leading axes (0-d for one window)."""
    return (T.best_of_m_ade(trajectories, gt).data,
            T.best_of_m_ade(trajectories[..., -1:, :], gt[..., -1:, :]).data)


def evaluate_min_of_m(pred_set: PredictionSet, gt: np.ndarray) -> tuple:
    """``min_of_m`` of one window's PredictionSet, as two floats."""
    ade, fde = min_of_m(pred_set.trajectories, np.asarray(gt))
    return float(ade), float(fde)
