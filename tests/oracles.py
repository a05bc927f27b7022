"""Independent straight-line reimplementations used as test oracles.

Everything here is deliberately written with explicit loops and plain
numpy, no shared code with the package internals, so agreement between
the two is meaningful.
"""

import numpy as np


def leaky(v, slope=0.2):
    return np.where(v >= 0, v, slope * v)


def softmax_rows(e):
    out = np.empty_like(e)
    for i in range(e.shape[0]):
        row = e[i] - e[i].max()
        ex = np.exp(row)
        out[i] = ex / ex.sum()
    return out


def gal_oracle(h, pos, store, prefix, heads, head_out, use_edges=True):
    """Loop evaluation of one attention layer from named parameters."""
    n = h.shape[0]
    p = {name: t.data for name, t in store.items()}
    if use_edges:
        edge = np.empty((n, n, head_out))
        for i in range(n):
            for j in range(n):
                edge[i, j] = (pos[i] - pos[j]) @ p[f"{prefix}.edge.W"] + p[f"{prefix}.edge.b"]
    outs, attn = [], []
    for k in range(heads):
        e = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                s = h[i] @ p[f"{prefix}.h{k}.w1"][:, 0] + h[j] @ p[f"{prefix}.h{k}.w2"][:, 0]
                if use_edges:
                    s = s + edge[i, j] @ p[f"{prefix}.h{k}.ae"][:, 0]
                e[i, j] = s if s >= 0 else 0.2 * s
        a = softmax_rows(e)
        u = h @ p[f"{prefix}.h{k}.val.W"] + p[f"{prefix}.h{k}.val.b"]
        g = np.tanh(u) * u
        outs.append(leaky(a @ g))
        attn.append(a)
    merged = np.concatenate(outs, axis=1)
    res = h @ p[f"{prefix}.res.W"] + p[f"{prefix}.res.b"]
    return merged + res, np.array(attn)


def spatial_oracle(features, positions, store, cfg):
    """Loop evaluation of embed + both attention layers at every step."""
    p = {name: t.data for name, t in store.items()}
    n, t_obs = features.shape[0], features.shape[1]
    out = np.empty((n, t_obs, cfg.gal2_heads * cfg.gal2_out))
    use_edges = cfg.variant != "vanilla_gat"
    for t in range(t_obs):
        h0 = features[:, t, :] @ p["embed.W"] + p["embed.b"]
        h1, _ = gal_oracle(h0, positions[:, t, :], store, "gal1",
                           cfg.gal1_heads, cfg.gal1_out, use_edges=use_edges)
        h2, _ = gal_oracle(h1, positions[:, t, :], store, "gal2",
                           cfg.gal2_heads, cfg.gal2_out, use_edges=use_edges)
        out[:, t, :] = h2
    return out


def decoder_oracle(h, draws, store, prefix):
    """Loop evaluation of a decoder head on its explicitly concatenated input.

    Sampling head: h is the embedding [N, T_obs, F] and draws the noise
    [M, T_obs, D]; the input of (draw m, pedestrian n) is the
    concatenation over t of (h[n, t], draws[m, t]). Latent head: h is the
    flat embedding [N, flat] and draws the latents [M, N, L]; the input is
    (h[n], draws[m, n]). An optional hidden layer applies leaky_relu.
    Returns offsets [M, N, T_pred, 2].
    """
    p = {name: t.data for name, t in store.items()}
    n_draws, n_peds = draws.shape[0], h.shape[0]
    out = []
    for m in range(n_draws):
        for n in range(n_peds):
            if h.ndim == 3:
                parts = []
                for t in range(h.shape[1]):
                    parts.extend([h[n, t], draws[m, t]])
                x = np.concatenate(parts)
            else:
                x = np.concatenate([h[n], draws[m, n]])
            if f"{prefix}.hidden.W" in p:
                x = leaky(x @ p[f"{prefix}.hidden.W"] + p[f"{prefix}.hidden.b"])
            out.append(x @ p[f"{prefix}.W"] + p[f"{prefix}.b"])
    return np.array(out).reshape(n_draws, n_peds, -1, 2)


def conv_oracle(x, W, b, dilation):
    """Causal convolution of one sequence as a per-tap loop.

    x is [C_in, T], W is [C_out, C_in, k]; tap j reads step
    t - (k - 1 - j) * dilation, and steps before 0 read zero.
    """
    c_out, c_in, k = W.shape
    t_len = x.shape[1]
    out = np.repeat(np.asarray(b, dtype=float)[:, None], t_len, axis=1)
    for tap in range(k):
        shift = (k - 1 - tap) * dilation
        for t in range(shift, t_len):
            out[:, t] += W[:, :, tap] @ x[:, t - shift]
    return out


def conv_stack_oracle(x, store, prefix, layers, kernel, dilations):
    """Gated causal convolution stack, one pedestrian, via conv_oracle.

    x is [C0, T]; layer l reads p[f"{prefix}.l{l}.gate/filt.W/b"] and applies
    tanh(conv_g) * sigmoid(conv_f).
    """
    p = {name: t.data for name, t in store.items()}
    h = x
    for layer in range(layers):
        pre, d = f"{prefix}.l{layer}", dilations[layer]
        g = conv_oracle(h, p[f"{pre}.gate.W"], p[f"{pre}.gate.b"], d)
        f = conv_oracle(h, p[f"{pre}.filt.W"], p[f"{pre}.filt.b"], d)
        h = np.tanh(g) * (1.0 / (1.0 + np.exp(-f)))
    return h


def ade_oracle(pred, gt):
    """Mean Euclidean distance, explicit loops. pred/gt are [N, T, 2]."""
    n, t = pred.shape[0], pred.shape[1]
    total = 0.0
    for i in range(n):
        for s in range(t):
            dx = pred[i, s, 0] - gt[i, s, 0]
            dy = pred[i, s, 1] - gt[i, s, 1]
            total += (dx * dx + dy * dy) ** 0.5
    return total / (n * t)


def fde_oracle(pred, gt):
    n = pred.shape[0]
    total = 0.0
    for i in range(n):
        dx = pred[i, -1, 0] - gt[i, -1, 0]
        dy = pred[i, -1, 1] - gt[i, -1, 1]
        total += (dx * dx + dy * dy) ** 0.5
    return total / n


def kl_mc_oracle(mu, logvar, n_draws, seed):
    """Monte-Carlo KL(q || N(0, I)) via log-density difference."""
    rng = np.random.default_rng(seed)
    sigma = np.exp(0.5 * logvar)
    z = mu + sigma * rng.standard_normal((n_draws,) + mu.shape)
    logq = -0.5 * (((z - mu) / sigma) ** 2 + np.log(2 * np.pi) + logvar)
    logp = -0.5 * (z**2 + np.log(2 * np.pi))
    per_draw = (logq - logp).sum(axis=tuple(range(1, z.ndim)))
    return per_draw.mean()


def adam_oracle(values, grad_steps, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam looped per parameter, one step per dict in ``grad_steps``.

    ``values`` and each step map parameter names to arrays; returns the
    updated values (the inputs are not modified).
    """
    x = {name: np.array(v, dtype=np.float64) for name, v in values.items()}
    m = {name: np.zeros_like(a) for name, a in x.items()}
    v = {name: np.zeros_like(a) for name, a in x.items()}
    for t, grads in enumerate(grad_steps, start=1):
        bc1 = 1.0 - beta1**t
        bc2 = 1.0 - beta2**t
        for name in x:
            g = grads[name]
            m[name] *= beta1
            m[name] += (1.0 - beta1) * g
            v[name] *= beta2
            v[name] += (1.0 - beta2) * g * g
            x[name] -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)
    return x
