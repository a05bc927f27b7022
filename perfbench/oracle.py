"""Independent plain-numpy forward of the default ``graphtcn`` variant.

It reads parameters by name from a plain dict of arrays and shares no code
with the package, so agreement between the two is meaningful. It is
vectorised over time, heads and pedestrians, so it sums in another order
than the package does: agreement is checked to ``TOL``, which admits the
~1e-15 reassociation of a batched rewrite (measured: 4e-15 at N=64) and
rejects a weight nudged by 1e-6 (the self-test shows both).
"""

from __future__ import annotations

import numpy as np

TOL = 1e-11  # |pred - ref| <= TOL * (1 + |ref|), positions in meters


def _leaky(v, slope):
    return np.where(v >= 0.0, v, slope * v)


def _gal(h, pos, p, prefix, heads, slope):
    """h [T, N, D], pos [T, N, 2] -> [T, N, heads * head_out]."""
    disp = pos[:, :, None, :] - pos[:, None, :, :]
    edge = disp @ p[f"{prefix}.edge.W"] + p[f"{prefix}.edge.b"]
    outs = []
    for k in range(heads):
        hk = f"{prefix}.h{k}"
        logits = (h @ p[f"{hk}.w1"]) + np.swapaxes(h @ p[f"{hk}.w2"], 1, 2)
        logits = _leaky(logits + (edge @ p[f"{hk}.ae"])[..., 0], slope)
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        alpha = e / e.sum(axis=-1, keepdims=True)
        u = h @ p[f"{hk}.val.W"] + p[f"{hk}.val.b"]
        outs.append(_leaky(alpha @ (np.tanh(u) * u), slope))
    return np.concatenate(outs, axis=-1) + h @ p[f"{prefix}.res.W"] + p[f"{prefix}.res.b"]


def _causal_conv(x, W, b, dilation):
    """x [N, C_in, T], W [C_out, C_in, k] -> [N, C_out, T] via im2col."""
    c_out, c_in, k = W.shape
    t_len = x.shape[2]
    pad = (k - 1) * dilation
    xp = np.concatenate([np.zeros(x.shape[:2] + (pad,)), x], axis=2)
    cols = np.stack([xp[:, :, j * dilation:j * dilation + t_len] for j in range(k)], axis=2)
    return np.einsum("ock,nckt->not", W, cols) + b[None, :, None]


def encode(p: dict, positions: np.ndarray, cfg) -> np.ndarray:
    """Window positions [N, T_total, 2] -> temporal features [N, T_obs, C]."""
    if cfg.variant != "graphtcn" or cfg.decoder_hidden or cfg.separate_gate:
        raise ValueError("the oracle covers the default graphtcn variant only")
    obs = positions[:, :cfg.t_obs]
    feats = np.concatenate([obs, np.diff(obs, axis=1, prepend=obs[:, :1])], axis=2)
    h = np.swapaxes(feats, 0, 1) @ p["embed.W"] + p["embed.b"]
    pos = np.swapaxes(obs, 0, 1)
    h = _gal(h, pos, p, "gal1", cfg.gal1_heads, cfg.leaky_slope)
    h = _gal(h, pos, p, "gal2", cfg.gal2_heads, cfg.leaky_slope)
    x = np.transpose(h, (1, 2, 0))
    for i, d in enumerate(cfg.tcn_dilations):
        g = _causal_conv(x, p[f"tcn.l{i}.gate.W"], p[f"tcn.l{i}.gate.b"], d)
        f = _causal_conv(x, p[f"tcn.l{i}.filt.W"], p[f"tcn.l{i}.filt.b"], d)
        x = np.tanh(g) / (1.0 + np.exp(-f))
    return np.swapaxes(x, 1, 2)


def decode(p: dict, enc: np.ndarray, noise: np.ndarray, origin: np.ndarray,
           t_pred: int) -> np.ndarray:
    """enc [N, T, C], noise [M, T, D] -> absolute trajectories [M, N, T_pred, 2]."""
    m, n = noise.shape[0], enc.shape[0]
    joint = np.concatenate([np.broadcast_to(enc, (m,) + enc.shape),
                            np.broadcast_to(noise[:, None], (m, n) + noise.shape[1:])], axis=3)
    out = joint.reshape(m, n, -1) @ p["dec.out.W"] + p["dec.out.b"]
    return out.reshape(m, n, t_pred, 2) + origin[None, :, None, :]


def draw_noise(seed_key, m: int, cfg) -> np.ndarray:
    """The M shared-noise blocks ``predict`` draws from default_rng(seed_key)."""
    return np.random.default_rng(seed_key).standard_normal((m, cfg.t_obs, cfg.noise_dim))


def agrees(pred: np.ndarray, ref: np.ndarray) -> bool:
    return (pred.shape == ref.shape and bool(np.isfinite(pred).all())
            and bool((np.abs(pred - ref) <= TOL * (1.0 + np.abs(ref))).all()))
