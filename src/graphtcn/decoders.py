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

Each decoder keeps only its variant behind one interface: ``noise``
draws the M-sample block it decodes, ``forward`` decodes it from the
prior, and ``fit`` is the training decode, returning (offsets, KL term
or None). The latent head also keeps its posterior.

One ``_Head`` owns the decode both share: the embedding check and
flatten, all M draws at once (a leading axis of the noise, carried by
every output as [M, N, T_pred, 2]), and the first affine map as one
draw_affine op, the sum of an embedding part, computed once per
pedestrian, and a noise or latent part, computed once per draw, on two
row sets of the stored weight. The concatenation is never built.

A bucket of windows decodes in the same calls: its window axis B follows
the draw axis in the noise and precedes the pedestrians in the
embedding, so each window's offsets in [M, B, N, T_pred, 2] come from its
own draws.

``GraphTCN.predict`` wraps the absolute trajectories in a
``metrics.PredictionSet``; this module takes only the KL term from there.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .init import add_affine
from .metrics import kl_diag_gaussian


def reparameterize(mu: T.Tensor, sigma: T.Tensor, eps: np.ndarray) -> T.Tensor:
    """z = mu + sigma * eps for M pre-drawn eps [M, N, L], with gradients
    into mu and sigma [N, L]; pre-drawn eps keeps gradient checks
    deterministic."""
    eps = np.asarray(eps, dtype=np.float64)
    if eps.ndim != 3 or eps.shape[1:] != mu.data.shape:
        raise ShapeError(f"eps {eps.shape} vs mu {mu.data.shape}, expected [M, N, L]")
    m = eps.shape[0]
    return T.add(_tile(mu, m), T.mul(_tile(sigma, m), T.Tensor(eps)))


def relative_to_absolute(delta: T.Tensor, origin: np.ndarray) -> T.Tensor:
    """Offsets-from-origin [..., N, T_pred, 2] -> absolute positions, for
    origins [..., N, 2] whose axes end delta's before the steps (a bucket's
    windows and pedestrians, or a window's pedestrians)."""
    lead, t_pred = delta.data.shape[:-2], delta.data.shape[-2]
    if (origin.ndim < 2 or origin.shape[-1] != 2
            or lead[len(lead) + 1 - origin.ndim:] != origin.shape[:-1]):
        raise ShapeError(f"origin {origin.shape} for offsets {delta.shape}")
    # Repeated over steps and broadcast over the leading axes only, so the
    # add runs over whole contiguous [T_pred, 2] rows.
    rows = np.repeat(origin[..., None, :], t_pred, axis=-2)
    return T.add(delta, T.Tensor(np.broadcast_to(rows, delta.data.shape)))


def _tile(x: T.Tensor, m: int) -> T.Tensor:
    """m copies of x along a new leading axis."""
    return T.repeat_axis(T.reshape(x, (1, *x.data.shape)), 0, m)


class _Head:
    """The decode both decoders share: embedding check and flatten, an
    affine head (with one hidden layer when configured), and the
    [M, ..., N, T_pred, 2] reshape of its output.

    The head reads concat(shared, per_draw): the flattened embedding,
    which varies only over pedestrians, and a part that varies over
    draws. The rows of its first weight come in ``groups`` blocks of
    embedding rows followed by draw rows, so the first affine runs on the
    two row sets, added over [M, N, .] (one draw_affine op), and the
    concatenated [M, N, .] input is never built.
    """

    def __init__(self, store, prefix: str, t_obs: int, t_pred: int, feat_dim: int,
                 draw_dim: int, groups: int, hidden: int, rng):
        in_dim = t_obs * feat_dim + groups * draw_dim
        if hidden > 0:
            self.h_W, self.h_b = add_affine(store, f"{prefix}.hidden", in_dim, hidden, rng)
            in_dim = hidden
        else:
            self.h_W = None
        self.W, self.b = add_affine(store, prefix, in_dim, t_pred * 2, rng)
        self.t_obs, self.t_pred, self.feat_dim, self.groups = t_obs, t_pred, feat_dim, groups

    def flatten(self, h: T.Tensor) -> T.Tensor:
        """Embedding [..., N, T_obs, F] -> [..., N, T_obs * F]."""
        if h.data.ndim < 3 or h.data.shape[-2:] != (self.t_obs, self.feat_dim):
            raise ShapeError(
                f"embedding {h.shape}, expected [..., N, {self.t_obs}, {self.feat_dim}]")
        return T.reshape(h, h.data.shape[:-2] + (-1,))

    def forward(self, h_flat: T.Tensor, per_draw: T.Tensor) -> T.Tensor:
        """h_flat [..., N, T_obs * F], per_draw [M, ..., groups * draw_dim]
        (the same for every pedestrian) or [M, ..., N, groups * draw_dim]
        -> offsets [M, ..., N, T_pred, 2]."""
        W, b = (self.W, self.b) if self.h_W is None else (self.h_W, self.h_b)
        x = T.draw_affine(h_flat, per_draw, W, b, self.groups)
        if self.h_W is not None:
            x = T.affine(T.leaky_relu(x), self.W, self.b)
        return T.reshape(x, x.data.shape[:-1] + (self.t_pred, 2))


class MlpDecoder:
    """Shared-noise decoder: concat(embedding, noise) -> offsets."""

    def __init__(self, store, prefix: str, t_obs: int, t_pred: int,
                 feat_dim: int, noise_dim: int, rng, hidden: int = 0):
        self.noise_shape = (t_obs, noise_dim)
        # Input rows interleave per observed step: feat_dim embedding rows,
        # then noise_dim noise rows.
        self.head = _Head(store, f"{prefix}.out", t_obs, t_pred, feat_dim, noise_dim,
                          t_obs, hidden, rng)

    def noise(self, rng: np.random.Generator, m: int, n_peds: int) -> np.ndarray:
        """M draws [M, T_obs, noise_dim], each shared by all pedestrians."""
        return rng.standard_normal((m, *self.noise_shape))

    def forward(self, h: T.Tensor, noise: np.ndarray) -> T.Tensor:
        """h [..., N, T_obs, F2], noise [M, ..., T_obs, F3] -> offsets
        [M, ..., N, T_pred, 2]."""
        h_flat = self.head.flatten(h)
        if noise.shape[1:] != h.data.shape[:-3] + self.noise_shape:
            raise ShapeError(
                "noise {}, expected [M, ..., {}, {}]".format(noise.shape, *self.noise_shape))
        return self.head.forward(h_flat, T.Tensor(noise.reshape(noise.shape[:-2] + (-1,))))

    def fit(self, h: T.Tensor, noise: np.ndarray, future: np.ndarray):
        """Training decode: the prior path, with no KL term."""
        return self.forward(h, noise), None


class CvaeDecoder:
    """Latent-variable decoder with a ground-truth-future posterior."""

    def __init__(self, store, prefix: str, t_obs: int, t_pred: int,
                 feat_dim: int, latent_dim: int, rng, hidden: int = 0):
        self.latent_dim = latent_dim
        self.fut_W, self.fut_b = add_affine(store, f"{prefix}.future", t_pred * 2, latent_dim, rng)
        # One affine produces both moments; zero bias starts sigma at 1.
        self.post_W, self.post_b = add_affine(
            store, f"{prefix}.posterior", t_obs * feat_dim + latent_dim, 2 * latent_dim, rng
        )
        self.head = _Head(store, f"{prefix}.out", t_obs, t_pred, feat_dim, latent_dim,
                          1, hidden, rng)

    def noise(self, rng: np.random.Generator, m: int, n_peds: int) -> np.ndarray:
        """M latent draws [M, N, latent_dim], one per pedestrian."""
        return rng.standard_normal((m, n_peds, self.latent_dim))

    def forward(self, h: T.Tensor, noise: np.ndarray) -> T.Tensor:
        """Prior decoding: h [..., N, T_obs, F2], latents [M, ..., N, L] -> offsets."""
        return self.decode(self.head.flatten(h), T.Tensor(noise))

    def fit(self, h: T.Tensor, noise: np.ndarray, future: np.ndarray):
        """Decodes posterior draws of future [N, T_pred, 2]; returns (offsets, KL)."""
        h_flat = self.head.flatten(h)
        mu, sigma, logvar = self.encode_posterior(h_flat, T.Tensor(future))
        delta = self.decode(h_flat, reparameterize(mu, sigma, noise))
        return delta, kl_diag_gaussian(mu, sigma, logvar)

    def encode_posterior(self, h_flat: T.Tensor, future_delta: T.Tensor):
        """Returns (mu, sigma, logvar), each [N, latent_dim]."""
        n = h_flat.data.shape[0]
        fut_flat = T.reshape(future_delta, (n, self.head.t_pred * 2))
        fut_enc = T.affine(fut_flat, self.fut_W, self.fut_b)
        moments = T.affine(T.concat([h_flat, fut_enc], axis=1), self.post_W, self.post_b)
        mu = T.slice_axis(moments, 1, 0, self.latent_dim)
        logvar = T.slice_axis(moments, 1, self.latent_dim, 2 * self.latent_dim)
        sigma = T.exp(T.mul(logvar, 0.5))
        return mu, sigma, logvar

    def decode(self, h_flat: T.Tensor, z: T.Tensor) -> T.Tensor:
        """h_flat [..., N, flat], latents z [M, ..., N, L] -> offsets
        [M, ..., N, T_pred, 2]. The latent check is the decoder's own:
        draw_affine would take a latent without the pedestrian axis as one
        block per draw, shared by all pedestrians."""
        want = h_flat.data.shape[:-1] + (self.latent_dim,)
        if z.data.ndim != len(want) + 1 or z.data.shape[1:] != want:
            raise ShapeError(f"latent {z.shape}, expected [M, {', '.join(map(str, want))}]")
        return self.head.forward(h_flat, z)
