"""Full predictor: spatial attention encoder, temporal convolution stack,
and a sampling decoder, composed per scene window.

Variant switchboard:
  graphtcn     shared-noise decoder, variety loss only
  graphtcn_g   latent decoder with future posterior, variety + KL
  no_efgat     attention bypassed entirely; the input embedding feeds
               the temporal stack directly
  vanilla_gat  attention without edge features (positions unused)
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .config import ModelConfig
from .data import SequenceWindow, build_features
from .decoders import (
    CvaeDecoder,
    MlpDecoder,
    PredictionSet,
    relative_to_absolute,
    reparameterize,
)
from .errors import ContractError
from .graph_attention import SpatialEncoder
from .init import add_affine
from .metrics import LossWeights, combined_loss, kl_diag_gaussian, variety_loss
from .temporal_conv import TemporalConvNet


class GraphTCN:
    def __init__(self, cfg: ModelConfig, rng: np.random.Generator = None):
        cfg.validate()
        self.cfg = cfg
        self.params = T.ParameterStore()
        if rng is None:
            rng = np.random.default_rng(cfg.seed)

        if cfg.variant == "no_efgat":
            self.spatial = None
            self.embed_W, self.embed_b = add_affine(self.params, "embed", 4, cfg.embed_dim, rng)
        else:
            self.spatial = SpatialEncoder(self.params, cfg, rng)

        self.tcn = TemporalConvNet(
            self.params, "tcn", cfg.spatial_out_dim(), cfg.tcn_channels,
            cfg.tcn_layers, cfg.tcn_kernel, cfg.tcn_dilations, rng,
        )

        if cfg.variant == "graphtcn_g":
            self.decoder = CvaeDecoder(
                self.params, "dec", cfg.t_obs, cfg.t_pred, cfg.tcn_channels,
                cfg.future_embed_dim, rng, hidden=cfg.decoder_hidden,
            )
        else:
            self.decoder = MlpDecoder(
                self.params, "dec", cfg.t_obs, cfg.t_pred, cfg.tcn_channels,
                cfg.noise_dim, rng, hidden=cfg.decoder_hidden,
            )

        self.loss_weights = LossWeights(
            kl_early=cfg.kl_weight_early, kl_late=cfg.kl_weight_late,
            switch_epoch=cfg.kl_switch_epoch,
        )

    # Forward pieces ------------------------------------------------------

    def encode(self, window: SequenceWindow):
        """Window -> per-step embeddings [N, T_obs, F2] + attention record."""
        cfg = self.cfg
        if window.t_total < cfg.t_obs + cfg.t_pred:
            raise ContractError(
                f"window has {window.t_total} steps, config needs {cfg.t_obs + cfg.t_pred}"
            )
        feats = build_features(window, cfg.t_obs)
        if self.spatial is not None:
            positions = window.positions[:, :cfg.t_obs, :]
            h, attn = self.spatial.forward(feats, positions)
        else:
            h = T.affine(feats, self.embed_W, self.embed_b)
            attn = None
        return self.tcn.forward(h), attn

    def _origin(self, window: SequenceWindow) -> np.ndarray:
        return window.positions[:, self.cfg.t_obs - 1, :]

    def _ground_truth(self, window: SequenceWindow) -> np.ndarray:
        return window.positions[:, self.cfg.t_obs : self.cfg.t_obs + self.cfg.t_pred, :]

    def draw_noise(self, rng: np.random.Generator, n_peds: int) -> np.ndarray:
        """Pre-draw the noise of one window forward, all cfg.samples draws.

        Pre-drawn noise keeps gradient checks deterministic: the same
        block can be replayed through window_loss any number of times.
        """
        return self._noise(rng, self.cfg.samples, n_peds)

    def _noise(self, rng: np.random.Generator, m: int, n_peds: int) -> np.ndarray:
        """M draws in one block: shared noise [M, T_obs, noise_dim], or
        latents [M, N, future_embed_dim] for the latent variant. The block
        holds the same numbers as M consecutive single draws."""
        cfg = self.cfg
        if cfg.variant == "graphtcn_g":
            return rng.standard_normal((m, n_peds, cfg.future_embed_dim))
        return rng.standard_normal((m, cfg.t_obs, cfg.noise_dim))

    def decode_samples(self, h: T.Tensor, origin: np.ndarray, noise: np.ndarray) -> T.Tensor:
        """Prior-noise decoding: absolute trajectories [M, N, T_pred, 2]."""
        if self.cfg.variant == "graphtcn_g":
            delta = self.decoder.decode(self.decoder.flatten_embedding(h), T.Tensor(noise))
        else:
            delta = self.decoder.forward(h, noise)
        return relative_to_absolute(delta, origin)

    # Training objective ---------------------------------------------------

    def window_loss(self, window: SequenceWindow, epoch: int, noise: np.ndarray):
        """Variety (+ scheduled KL for the latent variant) on one window.

        Returns (loss tensor, parts dict of plain floats for logging).
        ``noise`` comes from draw_noise; for the latent variant it carries
        the reparameterization draws.
        """
        cfg = self.cfg
        if len(noise) != cfg.samples:
            raise ContractError(f"{len(noise)} noise draws for {cfg.samples} samples")
        gt = self._ground_truth(window)
        origin = self._origin(window)
        h, _ = self.encode(window)

        kl = None
        if cfg.variant == "graphtcn_g":
            h_flat = self.decoder.flatten_embedding(h)
            gt_delta = gt - origin[:, None, :]
            mu, sigma, logvar = self.decoder.encode_posterior(h_flat, T.Tensor(gt_delta))
            delta = self.decoder.decode(h_flat, reparameterize(mu, sigma, noise))
            samples = relative_to_absolute(delta, origin)
            kl = kl_diag_gaussian(mu, sigma, logvar)
        else:
            samples = self.decode_samples(h, origin, noise)
        variety = variety_loss(samples, T.Tensor(gt))
        loss = combined_loss(variety, kl, self.loss_weights, epoch)
        parts = {"variety": variety.item(), "kl": 0.0 if kl is None else kl.item()}
        return loss, parts

    # Inference -------------------------------------------------------------

    def predict(self, window: SequenceWindow, m: int, rng: np.random.Generator):
        """M prior-noise trajectories; returns (PredictionSet, attention)."""
        if m < 1:
            raise ContractError(f"need m >= 1, got {m}")
        h, attn = self.encode(window)
        origin = self._origin(window)
        samples = self.decode_samples(h, origin, self._noise(rng, m, window.n_peds))
        return PredictionSet(samples.data, origin.copy(), m), attn
