"""Full predictor: spatial attention encoder, temporal convolution stack,
and a sampling decoder, composed per scene window.

Variant switchboard, whose stages __init__ picks once:
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
from .decoders import CvaeDecoder, MlpDecoder, PredictionSet, relative_to_absolute
from .errors import ContractError
from .graph_attention import SpatialEncoder
from .init import add_affine
from .metrics import variety_loss
from .temporal_conv import TemporalConvNet


class GraphTCN:
    def __init__(self, cfg: ModelConfig):
        cfg.validate()
        self.cfg = cfg
        self.params = T.ParameterStore()
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
        return self.decoder.noise(rng, self.cfg.samples, n_peds)

    # Training objective ---------------------------------------------------

    def window_loss(self, window: SequenceWindow, epoch: int, noise: np.ndarray):
        """Variety (+ scheduled KL for the latent variant) on one window.

        Returns (loss tensor, parts dict of plain floats for logging).
        ``noise`` comes from draw_noise; for the latent variant it carries
        the reparameterization draws.
        """
        cfg = self.cfg
        if epoch < 1:
            raise ContractError(f"epoch must be >= 1, got {epoch}")
        if len(noise) != cfg.samples:
            raise ContractError(f"{len(noise)} noise draws for {cfg.samples} samples")
        gt = self._ground_truth(window)
        origin = self._origin(window)
        h, _ = self.encode(window)
        delta, kl = self.decoder.fit(h, noise, gt - origin[:, None])
        variety = variety_loss(relative_to_absolute(delta, origin), T.Tensor(gt))
        loss = variety if kl is None else T.add(variety, T.mul(kl, cfg.kl_weight(epoch)))
        parts = {"variety": variety.item(), "kl": 0.0 if kl is None else kl.item()}
        return loss, parts

    # Inference -------------------------------------------------------------

    def predict(self, window: SequenceWindow, m: int, rng: np.random.Generator):
        """M prior-noise trajectories; returns (PredictionSet, attention)."""
        if m < 1:
            raise ContractError(f"need m >= 1, got {m}")
        h, attn = self.encode(window)
        origin = self._origin(window)
        delta = self.decoder.forward(h, self.decoder.noise(rng, m, window.n_peds))
        return PredictionSet(relative_to_absolute(delta, origin).data), attn
