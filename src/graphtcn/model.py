"""Full predictor: spatial encoder, temporal convolution stack, and a
sampling decoder, composed per scene window or per bucket of windows.

The variants and the stage that owns each:
  graphtcn     shared-noise decoder, variety loss only
  graphtcn_g   latent decoder with future posterior, variety + KL
  no_efgat     spatial stage is the input embedding alone, feeding the
               temporal stack directly
  vanilla_gat  spatial attention without edge features (positions unused)
__init__ picks only the decoder class; the spatial stage decides
no_efgat and vanilla_gat and reports its own output width.

The forward reads only positions: a ``SequenceWindow``'s [N, T, 2] or a
``WindowBucket``'s [B, N, T, 2], B windows with equal N. Every stage takes
the window axis as a leading axis, so a bucket runs through the same
calls as a window, which has no window axis.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .config import ModelConfig, check_key
from .data import SequenceWindow, build_features
from .decoders import CvaeDecoder, MlpDecoder, relative_to_absolute
from .errors import ContractError
from .graph_attention import SpatialEncoder
from .metrics import PredictionSet, variety_loss
from .temporal_conv import TemporalConvNet


class GraphTCN:
    def __init__(self, cfg: ModelConfig):
        cfg.validate()
        self.cfg = cfg
        self.params = T.ParameterStore()
        rng = np.random.default_rng(cfg.seed)

        self.spatial = SpatialEncoder(self.params, cfg, rng)
        self.tcn = TemporalConvNet(
            self.params, "tcn", self.spatial.out_dim, cfg.tcn_channels,
            cfg.tcn_layers, cfg.tcn_kernel, cfg.tcn_dilations, rng,
        )
        decoder, draw_dim = ((CvaeDecoder, cfg.future_embed_dim) if cfg.variant == "graphtcn_g"
                             else (MlpDecoder, cfg.noise_dim))
        self.decoder = decoder(self.params, "dec", cfg.t_obs, cfg.t_pred, cfg.tcn_channels,
                               draw_dim, rng, hidden=cfg.decoder_hidden)

    # Forward pieces ------------------------------------------------------

    def encode(self, window):
        """Window or bucket -> per-step embeddings [..., N, T_obs, F2] +
        attention record ([heads, ..., T_obs, N, N] per layer; None without
        attention layers). Reads only the t_obs observed steps."""
        cfg = self.cfg
        feats = build_features(window, cfg.t_obs)
        h, attn = self.spatial.forward(feats, window.positions[..., :cfg.t_obs, :])
        return self.tcn.forward(h), attn

    def _origin(self, window) -> np.ndarray:
        return window.positions[..., self.cfg.t_obs - 1, :]

    def ground_truth(self, window) -> np.ndarray:
        """The future positions [..., N, T_pred, 2] of a window or bucket,
        target of loss and metrics. The only reader of those steps, so the
        one check that the window has them."""
        cfg, t_total = self.cfg, window.positions.shape[-2]
        if t_total < cfg.t_obs + cfg.t_pred:
            raise ContractError(
                f"window has {t_total} steps, config needs {cfg.t_obs + cfg.t_pred}"
            )
        return window.positions[..., cfg.t_obs : cfg.t_obs + cfg.t_pred, :]

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
        gt = self.ground_truth(window)
        origin = self._origin(window)
        h, _ = self.encode(window)
        delta, kl = self.decoder.fit(h, noise, gt - origin[:, None])
        variety = variety_loss(relative_to_absolute(delta, origin), T.Tensor(gt))
        loss = variety if kl is None else T.add(variety, T.mul(kl, cfg.kl_weight(epoch)))
        parts = {"variety": variety.item(), "kl": 0.0 if kl is None else kl.item()}
        return loss, parts

    # Inference -------------------------------------------------------------

    def sample(self, window, noise: np.ndarray):
        """World-coordinate trajectories [M, ..., N, T_pred, 2], a tensor,
        decoded from the prior draws ``noise`` and the t_obs observed steps
        alone, and the attention record. ``noise`` is one ``decoder.noise``
        block for a window; for a bucket, one per window, stacked on axis 1
        in the bucket's order."""
        h, attn = self.encode(window)
        delta = self.decoder.forward(h, noise)
        return relative_to_absolute(delta, self._origin(window)), attn

    def predict(self, window: SequenceWindow, m: int, rng: np.random.Generator):
        """M prior-noise trajectories of one window, its noise drawn from
        ``rng``; returns (PredictionSet, attention)."""
        check_key("samples", m)
        trajectories, attn = self.sample(window, self.decoder.noise(rng, m, window.n_peds))
        return PredictionSet(trajectories.data), attn
