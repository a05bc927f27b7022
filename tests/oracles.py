"""Independent straight-line reimplementations used as test oracles.

Everything here is deliberately written in plain numpy, with explicit
loops or explicit arrays the package never forms (the N x N edge
features and attention logits, each decoder input's concatenation), and
no code shared with the package internals, so agreement between the two
is meaningful.

The layer and loss oracles take parameters as a name -> array mapping
(a store's ``state_arrays()``) and accept real or complex input: every
array is allocated in the input's dtype, and every comparison (a
leaky_relu's sign, a softmax's shift, the best-of-M minimum) reads
``.real``. So the same code evaluates the loss at complex parameters
theta + i*h*v, whose imaginary part over h is the directional derivative
to rounding (the complex step; Squire and Trapp, SIAM Review 40(1),
1998). The sigmoid and pair-softmax select forms are real-only.
"""

import numpy as np


# GAT's LeakyReLU slope, the one the whole model uses.
SLOPE = 0.2


def leaky(v):
    return leaky_select(v)[0]


# Select forms (np.where and masked ufuncs) of leaky_relu, sigmoid and the
# pair softmax: graphtcn.tensor's select-free kernels must match them byte
# for byte.


def leaky_select(v):
    """leaky_relu's value and its input-gradient factor (1 or SLOPE)."""
    return np.where(v.real >= 0.0, v, SLOPE * v), np.where(v.real >= 0.0, 1.0, SLOPE)


def sigmoid_select(d):
    """Logistic function, split by sign so exp never overflows."""
    e = np.exp(-np.abs(d))
    return np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def pair_softmax_select(src, dst):
    """Row softmax of leaky(src_i + dst_j) over j, and its backward.

    Returns (attention [..., N, N], backward), where backward maps the
    attention gradient to the (src, dst) gradients.
    """
    y = src[..., :, None] + dst[..., None, :]
    neg = y < 0.0
    np.multiply(y, SLOPE, out=y, where=neg)
    y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)

    def backward(g):
        gl = g * y
        gl -= y * gl.sum(axis=-1, keepdims=True)
        np.multiply(gl, SLOPE, out=gl, where=neg)
        return gl.sum(axis=-1), gl.sum(axis=-2)

    return y, backward


def softmax_rows(e):
    """Softmax of each row of e [..., N, N], shifted by its real maximum."""
    ex = np.exp(e - e.real.max(axis=-1, keepdims=True))
    return ex / ex.sum(axis=-1, keepdims=True)


def gal_oracle(h, pos, p, prefix, heads, head_out, use_edges=True):
    """One attention layer from named parameters over h [..., N, in] and
    pos [..., N, 2], whose leading axes are independent graphs: the
    N x N edge features built explicitly, then one head at a time its
    N x N logits, their row softmax and its weighted sum. Returns the
    output and the attention [heads, ..., N, N]."""
    if use_edges:
        disp = pos[..., :, None, :] - pos[..., None, :, :]
        edge = disp @ p[f"{prefix}.edge.W"] + p[f"{prefix}.edge.b"]
    outs, attn = [], []
    for k in range(heads):
        src = h @ p[f"{prefix}.h{k}.w1"][:, 0]
        dst = h @ p[f"{prefix}.h{k}.w2"][:, 0]
        e = src[..., :, None] + dst[..., None, :]
        if use_edges:
            e = e + edge @ p[f"{prefix}.h{k}.ae"][:, 0]
        a = softmax_rows(leaky(e))
        u = h @ p[f"{prefix}.h{k}.val.W"] + p[f"{prefix}.h{k}.val.b"]
        g = np.tanh(u) * u
        outs.append(leaky(a @ g))
        attn.append(a)
    merged = np.concatenate(outs, axis=-1)
    res = h @ p[f"{prefix}.res.W"] + p[f"{prefix}.res.b"]
    return merged + res, np.array(attn)


def spatial_oracle(features, positions, p, cfg):
    """Embed + both attention layers of one window, every step a graph."""
    steps = features.transpose(1, 0, 2)
    pos = positions.transpose(1, 0, 2)
    use_edges = cfg.variant != "vanilla_gat"
    h0 = steps @ p["embed.W"] + p["embed.b"]
    h1, _ = gal_oracle(h0, pos, p, "gal1", cfg.gal1_heads, cfg.gal1_out, use_edges=use_edges)
    h2, _ = gal_oracle(h1, pos, p, "gal2", cfg.gal2_heads, cfg.gal2_out, use_edges=use_edges)
    return h2.transpose(1, 0, 2)


def decoder_oracle(h, draws, p, prefix):
    """Loop evaluation of a decoder head on its explicitly concatenated input.

    Sampling head: h is the embedding [N, T_obs, F] and draws the noise
    [M, T_obs, D]; the input of (draw m, pedestrian n) is the
    concatenation over t of (h[n, t], draws[m, t]). Latent head: h is the
    flat embedding [N, flat] and draws the latents [M, N, L]; the input is
    (h[n], draws[m, n]). An optional hidden layer applies leaky_relu.
    Returns offsets [M, N, T_pred, 2].
    """
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
    """Causal convolution of one sequence as a loop over taps, each a
    shifted matrix product.

    x is [C_in, T], W is [C_out, C_in, k]; tap j reads step
    t - (k - 1 - j) * dilation, and steps before 0 read zero.
    """
    c_out, c_in, k = W.shape
    t_len = x.shape[1]
    out = np.repeat(np.asarray(b, dtype=np.result_type(x, W, b))[:, None], t_len, axis=1)
    for tap in range(k):
        shift = (k - 1 - tap) * dilation
        if shift < t_len:
            out[:, shift:] += W[:, :, tap] @ x[:, : t_len - shift]
    return out


def conv_stack_oracle(x, p, prefix, layers, dilations):
    """Gated causal convolution stack, one pedestrian, via conv_oracle.

    x is [C0, T]; layer l reads p[f"{prefix}.l{l}.gate/filt.W/b"] and applies
    tanh(conv_g) * sigmoid(conv_f).
    """
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


def min_of_m_oracle(trajs, gt):
    """Best-of-M ADE and FDE, one sample at a time. trajs is [M, N, T, 2]."""
    ades = [ade_oracle(trajs[m], gt) for m in range(trajs.shape[0])]
    fdes = [fde_oracle(trajs[m], gt) for m in range(trajs.shape[0])]
    return min(ades, key=lambda c: c.real), min(fdes, key=lambda c: c.real)


def encode_oracle(p, positions, cfg):
    """The per-step embeddings [N, T_obs, F] of one window of positions
    [N, T, 2], every variant: features (x, y, dx, dy) per observed step with
    dx = dy = 0 at the first, then the embedding affine alone (no_efgat) or
    spatial_oracle, then conv_stack_oracle per pedestrian."""
    n, t_obs = positions.shape[0], cfg.t_obs
    obs = positions[:, :t_obs]
    feats = np.zeros((n, t_obs, 4))
    for i in range(n):
        for t in range(t_obs):
            feats[i, t, :2] = obs[i, t]
            if t > 0:
                feats[i, t, 2:] = obs[i, t] - obs[i, t - 1]
    if cfg.variant == "no_efgat":
        h = np.array([[feats[i, t] @ p["embed.W"] + p["embed.b"] for t in range(t_obs)]
                      for i in range(n)])
    else:
        h = spatial_oracle(feats, obs, p, cfg)
    return np.array([conv_stack_oracle(h[i].T, p, "tcn", cfg.tcn_layers, cfg.tcn_dilations).T
                     for i in range(n)])


def flat_oracle(emb):
    """Each pedestrian's embedding rows [T_obs, F] joined into one vector."""
    return np.array([np.concatenate(list(emb[i])) for i in range(emb.shape[0])])


def sample_oracle(p, positions, cfg, draws):
    """Prior trajectories [M, N, T_pred, 2] of one window: offsets from the
    last observed position, decoded from draws [M, T_obs, noise_dim] or, for
    graphtcn_g, latents [M, N, future_embed_dim] read with the flat
    embedding."""
    emb = encode_oracle(p, positions, cfg)
    offsets = decoder_oracle(flat_oracle(emb) if cfg.variant == "graphtcn_g" else emb,
                             draws, p, "dec.out")
    return offsets + positions[None, :, cfg.t_obs - 1, None, :]


def evaluate_oracle(p, windows, cfg, m, seed):
    """evaluate_dataset one window at a time: for each window's positions
    [N, T, 2] in the order given, draw its prior block from one generator
    seeded ``seed`` ([M, T_obs, noise_dim], or [M, N, future_embed_dim] for
    graphtcn_g), decode it with sample_oracle and score it with
    min_of_m_oracle. Returns (trajectories, best-of-M ADE, FDE) per window."""
    rng = np.random.default_rng(seed)
    out = []
    for positions in windows:
        shape = ((m, positions.shape[0], cfg.future_embed_dim) if cfg.variant == "graphtcn_g"
                 else (m, cfg.t_obs, cfg.noise_dim))
        trajs = sample_oracle(p, positions, cfg, rng.standard_normal(shape))
        gt = positions[:, cfg.t_obs : cfg.t_obs + cfg.t_pred]
        out.append((trajs, *min_of_m_oracle(trajs, gt)))
    return out


def window_loss_oracle(p, positions, cfg, noise, epoch):
    """GraphTCN.window_loss of one window, every variant, from the loop oracles.

    positions is the window's [N, T_obs + T_pred, 2]; noise is the block
    draw_noise gives, [M, T_obs, noise_dim] or, for graphtcn_g, the
    reparameterization draws [M, N, future_embed_dim]. The embedding is
    encode_oracle's; the decoder predicts offsets from the last observed
    position. Returns the variety loss (the best-of-M ADE), plus for
    graphtcn_g the closed-form KL of its posterior, weighted early through
    kl_switch_epoch, then late.
    """
    n, t_obs, t_pred = positions.shape[0], cfg.t_obs, cfg.t_pred
    origin = positions[:, t_obs - 1]
    gt = positions[:, t_obs : t_obs + t_pred]
    emb = encode_oracle(p, positions, cfg)
    kl = 0.0
    if cfg.variant == "graphtcn_g":
        latent = cfg.future_embed_dim
        flat = flat_oracle(emb)
        mu, logvar = [], []
        for i in range(n):
            fut = np.concatenate(list(gt[i] - origin[i]))
            fut_enc = fut @ p["dec.future.W"] + p["dec.future.b"]
            moments = np.concatenate([flat[i], fut_enc]) @ p["dec.posterior.W"] + p["dec.posterior.b"]
            mu.append(moments[:latent])
            logvar.append(moments[latent:])
        mu, logvar = np.array(mu), np.array(logvar)
        sigma = np.exp(logvar / 2)
        z = np.array([[mu[i] + sigma[i] * noise[m, i] for i in range(n)]
                      for m in range(len(noise))])
        offsets = decoder_oracle(flat, z, p, "dec.out")
        kl = 0.5 * np.mean([np.sum(mu[i] ** 2 + sigma[i] ** 2 - 1.0 - logvar[i])
                            for i in range(n)])
    else:
        offsets = decoder_oracle(emb, noise, p, "dec.out")
    trajs = offsets + origin[None, :, None, :]
    weight = cfg.kl_weight_early if epoch <= cfg.kl_switch_epoch else cfg.kl_weight_late
    return min_of_m_oracle(trajs, gt)[0] + weight * kl


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


def windows_oracle(scene, t_obs, t_pred, stride, frame_step):
    """extract_windows of a ``{frame: {ped_id: (x, y)}}`` map as
    (start_frame, ped_ids, positions) triples. Each frame across the
    scene's span, recorded or not, is tried as a start until one yields a
    window; from that anchor the starts run every ``frame_step * stride``
    frames to the span's end. Each window is built with a running set
    intersection that stops at the first empty frame and a per-element
    fill loop. None where extract_windows raises: two or more frames are
    recorded, and no pair of them stands exactly frame_step apart."""
    if len(scene) > 1 and not any(b - a == frame_step for a in scene for b in scene):
        return None
    t_total = t_obs + t_pred

    def window(start):
        win_frames = range(start, start + t_total * frame_step, frame_step)
        present = None
        for f in win_frames:
            here = set(scene.get(f, ()))
            present = here if present is None else (present & here)
            if not present:
                return None
        ped_ids = sorted(present)
        positions = np.empty((len(ped_ids), t_total, 2), dtype=np.float64)
        for i, pid in enumerate(ped_ids):
            for t, f in enumerate(win_frames):
                positions[i, t] = scene[f][pid]
        return win_frames[0], ped_ids, positions

    span = range(min(scene), max(scene) + 1) if scene else range(0)
    anchor = next((f for f in span if window(f)), None)
    if anchor is None:
        return []
    starts = range(anchor, span.stop, frame_step * stride)
    return [w for w in map(window, starts) if w is not None]
