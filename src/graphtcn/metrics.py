"""Displacement metrics and the two training loss terms.

The differentiable terms (variety and KL, which GraphTCN.window_loss
combines) run on the autodiff ops, the variety loss as one fused
best_of_m_ade op; the plain-number best-of-M evaluation at the bottom
works on numpy arrays and is what the reporting code calls.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import tensor as T
from .errors import ContractError, DomainError, ShapeError

if TYPE_CHECKING:  # decoders imports this module
    from .decoders import PredictionSet


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
    lowest sample index. A step where a sample meets the target takes
    gradient 0 (see ``best_of_m_ade``).
    """
    if isinstance(samples, (list, tuple)):
        if not samples:
            raise ContractError("variety loss needs at least one sample")
        samples = T.stack(samples)
    return T.best_of_m_ade(samples, gt.data)


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


# ---------------------------------------------------------------------------
# Plain-number evaluation (no tape)


def evaluate_min_of_m(pred_set: PredictionSet, gt: np.ndarray) -> tuple:
    """Best-of-M ADE and FDE, minima taken independently per metric.

    One pass over all M samples: the [M, N, T] step distances give each
    sample's ADE (mean over pedestrians and steps) and FDE (mean over
    pedestrians at the last step).
    """
    if np.shape(gt) != pred_set.trajectories.shape[1:]:
        raise ShapeError(f"ground truth {np.shape(gt)} vs samples {pred_set.trajectories.shape}")
    d = np.linalg.norm(pred_set.trajectories - gt, axis=-1)
    ades = d.reshape(d.shape[0], -1).mean(axis=1)
    fdes = d[:, :, -1].mean(axis=1)
    return float(ades.min()), float(fdes.min())
