"""Decoders from spatio-temporal embeddings to future displacement sets.

Two heads share the convention that the network predicts offsets from
each pedestrian's last observed position, converted to absolute
coordinates in one step at the end:

* the sampling head concatenates one shared noise block (identical for
  every pedestrian within a draw, fresh per draw) to the embedding and
  applies an affine map;
* the latent head encodes the ground-truth future into a Gaussian
  posterior during training, reparameterizes, and decodes the latent
  concatenated with the flattened embedding. At inference the latent
  comes from the standard normal prior.

Each head owns its variant behind one interface: ``noise`` draws the
M-sample block it decodes, ``forward`` decodes it from the prior, and
``fit`` is the training decode, returning (offsets, KL term or None).

Both heads decode all M draws at once: the draws are a leading axis of
the noise, and every output carries it as [M, N, T_pred, 2]. Neither
builds the concatenation: its first affine map is one draw_affine op,
the sum of an embedding part, computed once per pedestrian, and a noise
or latent part, computed once per draw, on two row sets of the stored
weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError, ShapeError
from .init import add_affine
from .metrics import kl_diag_gaussian


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

    @property
    def sample_count(self) -> int:
        return self.trajectories.shape[0]


def reparameterize(mu: T.Tensor, sigma: T.Tensor, eps: np.ndarray) -> T.Tensor:
    """z = mu + sigma * eps for M pre-drawn eps [M, N, L], with gradients
    into mu and sigma [N, L]; pre-drawn eps keeps gradient checks
    deterministic."""
    eps = np.asarray(eps, dtype=np.float64)
    if eps.ndim != 3 or eps.shape[1:] != mu.data.shape:
        raise ShapeError(f"eps {eps.shape} vs mu {mu.data.shape}, expected [M, N, L]")
    m = eps.shape[0]
    return T.add(_tile(mu, 0, m), T.mul(_tile(sigma, 0, m), T.Tensor(eps)))


def relative_to_absolute(delta: T.Tensor, origin: np.ndarray) -> T.Tensor:
    """Offsets-from-origin [..., N, T_pred, 2] -> absolute positions."""
    n, t_pred = delta.data.shape[-3:-1]
    if origin.shape != (n, 2):
        raise ShapeError(f"origin {origin.shape} for {n} pedestrians")
    # Repeated over steps and broadcast over the leading axes only, so the
    # add runs over whole contiguous [T_pred, 2] rows.
    rows = np.repeat(origin[:, None], t_pred, axis=1)
    return T.add(delta, T.Tensor(np.broadcast_to(rows, delta.data.shape)))


def _tile(x: T.Tensor, axis: int, m: int) -> T.Tensor:
    """m copies of x along a new axis inserted at ``axis``."""
    shape = x.data.shape
    return T.repeat_axis(T.reshape(x, shape[:axis] + (1,) + shape[axis:]), axis, m)


class _Head:
    """Affine head, optionally with one hidden layer when configured.

    The head reads concat(shared, per_draw): a part that varies only over
    pedestrians and a part that varies over draws. The rows of its first
    weight come in ``groups`` blocks of ``shared_dim`` shared rows followed
    by the draw rows, so the first affine runs on the two row sets, added
    over [M, N, .] (one draw_affine op), and the concatenated [M, N, .]
    input is never built.
    """

    def __init__(self, store, prefix: str, groups: int, shared_dim: int, draw_dim: int,
                 out_dim: int, hidden: int, rng):
        in_dim = groups * (shared_dim + draw_dim)
        if hidden > 0:
            self.h_W, self.h_b = add_affine(store, f"{prefix}.hidden", in_dim, hidden, rng)
            in_dim = hidden
        else:
            self.h_W = None
        self.W, self.b = add_affine(store, prefix, in_dim, out_dim, rng)
        self.groups = groups

    def forward(self, shared: T.Tensor, per_draw: T.Tensor) -> T.Tensor:
        """shared [N, groups*shared_dim], per_draw [M, groups*draw_dim]
        (the same for every pedestrian) or [M, N, groups*draw_dim]
        -> [M, N, out_dim]."""
        W, b = (self.W, self.b) if self.h_W is None else (self.h_W, self.h_b)
        x = T.draw_affine(shared, per_draw, W, b, self.groups)
        if self.h_W is not None:
            x = T.affine(T.leaky_relu(x), self.W, self.b)
        return x


class MlpDecoder:
    """Shared-noise decoder: concat(embedding, noise) -> offsets."""

    def __init__(self, store, prefix: str, t_obs: int, t_pred: int,
                 feat_dim: int, noise_dim: int, rng, hidden: int = 0):
        self.t_obs = t_obs
        self.t_pred = t_pred
        self.feat_dim = feat_dim
        self.noise_dim = noise_dim
        # Input rows interleave per observed step: feat_dim embedding rows,
        # then noise_dim noise rows.
        self.head = _Head(store, f"{prefix}.out", t_obs, feat_dim, noise_dim,
                          t_pred * 2, hidden, rng)

    def noise(self, rng: np.random.Generator, m: int, n_peds: int) -> np.ndarray:
        """M draws [M, T_obs, noise_dim], each shared by all pedestrians."""
        return rng.standard_normal((m, self.t_obs, self.noise_dim))

    def forward(self, h: T.Tensor, noise: np.ndarray) -> T.Tensor:
        """h [N, T_obs, F2], noise [M, T_obs, F3] -> offsets [M, N, T_pred, 2]."""
        n = h.data.shape[0]
        if h.data.shape != (n, self.t_obs, self.feat_dim):
            raise ShapeError(f"embedding {h.shape}, expected [N, {self.t_obs}, {self.feat_dim}]")
        if noise.ndim != 3 or noise.shape[1:] != (self.t_obs, self.noise_dim):
            raise ShapeError(f"noise {noise.shape}, expected [M, {self.t_obs}, {self.noise_dim}]")
        m = noise.shape[0]
        out = self.head.forward(T.reshape(h, (n, -1)), T.Tensor(noise.reshape(m, -1)))
        return T.reshape(out, (m, n, self.t_pred, 2))

    def fit(self, h: T.Tensor, noise: np.ndarray, future: np.ndarray):
        """Training decode: the prior path, with no KL term."""
        return self.forward(h, noise), None


class CvaeDecoder:
    """Latent-variable decoder with a ground-truth-future posterior."""

    def __init__(self, store, prefix: str, t_obs: int, t_pred: int,
                 feat_dim: int, latent_dim: int, rng, hidden: int = 0):
        self.t_obs = t_obs
        self.t_pred = t_pred
        self.feat_dim = feat_dim
        self.latent_dim = latent_dim
        self.flat_dim = t_obs * feat_dim
        self.fut_W, self.fut_b = add_affine(store, f"{prefix}.future", t_pred * 2, latent_dim, rng)
        # One affine produces both moments; zero bias starts sigma at 1.
        self.post_W, self.post_b = add_affine(
            store, f"{prefix}.posterior", self.flat_dim + latent_dim, 2 * latent_dim, rng
        )
        self.head = _Head(store, f"{prefix}.out", 1, self.flat_dim, latent_dim,
                          t_pred * 2, hidden, rng)

    def noise(self, rng: np.random.Generator, m: int, n_peds: int) -> np.ndarray:
        """M latent draws [M, N, latent_dim], one per pedestrian."""
        return rng.standard_normal((m, n_peds, self.latent_dim))

    def forward(self, h: T.Tensor, noise: np.ndarray) -> T.Tensor:
        """Prior decoding: h [N, T_obs, F2], latents [M, N, L] -> offsets."""
        return self.decode(self.flatten_embedding(h), T.Tensor(noise))

    def fit(self, h: T.Tensor, noise: np.ndarray, future: np.ndarray):
        """Decodes posterior draws of future [N, T_pred, 2]; returns (offsets, KL)."""
        h_flat = self.flatten_embedding(h)
        mu, sigma, logvar = self.encode_posterior(h_flat, T.Tensor(future))
        delta = self.decode(h_flat, reparameterize(mu, sigma, noise))
        return delta, kl_diag_gaussian(mu, sigma, logvar)

    def flatten_embedding(self, h: T.Tensor) -> T.Tensor:
        n = h.data.shape[0]
        if h.data.shape != (n, self.t_obs, self.feat_dim):
            raise ShapeError(f"embedding {h.shape}, expected [N, {self.t_obs}, {self.feat_dim}]")
        return T.reshape(h, (n, self.flat_dim))

    def encode_posterior(self, h_flat: T.Tensor, future_delta: T.Tensor):
        """Returns (mu, sigma, logvar), each [N, latent_dim]."""
        n = h_flat.data.shape[0]
        fut_flat = T.reshape(future_delta, (n, self.t_pred * 2))
        fut_enc = T.affine(fut_flat, self.fut_W, self.fut_b)
        moments = T.affine(T.concat([h_flat, fut_enc], axis=1), self.post_W, self.post_b)
        mu = T.slice_axis(moments, 1, 0, self.latent_dim)
        logvar = T.slice_axis(moments, 1, self.latent_dim, 2 * self.latent_dim)
        sigma = T.exp(T.mul(logvar, 0.5))
        return mu, sigma, logvar

    def decode(self, h_flat: T.Tensor, z: T.Tensor) -> T.Tensor:
        """h_flat [N, flat], latents z [M, N, L] -> offsets [M, N, T_pred, 2]."""
        n = h_flat.data.shape[0]
        if z.data.ndim != 3 or z.data.shape[1:] != (n, self.latent_dim):
            raise ShapeError(f"latent {z.shape}, expected [M, {n}, {self.latent_dim}]")
        m = z.data.shape[0]
        out = self.head.forward(h_flat, z)
        return T.reshape(out, (m, n, self.t_pred, 2))
