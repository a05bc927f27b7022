"""The op chains that attention_layer and gated_conv fuse, as test-side ops.

head_affine, tanh_gate, attention_weights, aggregate_heads and
gated_activation are the tape ops each layer ran before it became one
op, with their forward and backward rules as they were (the shape checks
left out). ``attention_layer`` and ``gated_conv`` chain them with the
library's affine, add and conv1d_causal as the layers did, under the
fused ops' signatures, so a test can swap them into graphtcn.tensor and
compare a model's bytes, op counts and memory against the chains. Kernels
are looked up on graphtcn.tensor at call time, so a test that swaps one
there swaps it here too.
"""

import numpy as np

from graphtcn import tensor as T
from graphtcn.tensor import Tensor, _accumulate, _as_tensor, _record, _recording, _unary


def head_affine(x, W, b) -> Tensor:
    """Per-head affine maps: x [..., in], W [H, in, out], b [H, out] ->
    [H, ..., out], as one product over the heads side by side."""
    x, W, b = _as_tensor(x), _as_tensor(W), _as_tensor(b)
    heads, d_in, d_out = W.data.shape
    lead = x.data.shape[:-1]
    x2 = x.data.reshape(-1, d_in)
    W2 = W.data.transpose(1, 0, 2).reshape(d_in, heads * d_out)
    out2 = x2 @ W2
    out2 += b.data.reshape(-1)
    out_data = out2.reshape(-1, heads, d_out).transpose(1, 0, 2)
    out = Tensor(out_data.reshape((heads,) + lead + (d_out,)))

    def bwd(g, x=x, W=W, b=b, x2=x2, W2=W2):
        g2 = g.reshape(heads, -1, d_out).transpose(1, 0, 2).reshape(-1, heads * d_out)
        if x.requires_grad:
            _accumulate(x, (g2 @ W2.T).reshape(x.data.shape))
        _accumulate(W, (x2.T @ g2).reshape(d_in, heads, d_out).transpose(1, 0, 2))
        _accumulate(b, g2.sum(axis=0).reshape(heads, d_out))

    _record(out, [x, W, b], bwd)
    return out


def tanh_gate(x) -> Tensor:
    """x * tanh(x); its gradient is mul(tanh(x), x)'s where x feeds
    nothing else."""
    x = _as_tensor(x)
    t = np.tanh(x.data)
    return _unary(x, t * x.data,
                  lambda g, x=x, t=t: g * t + (g * x.data) * (1.0 - t * t))


def gated_activation(x) -> Tensor:
    """tanh(first half) * sigmoid(second half) of ``x``'s last axis."""
    x = _as_tensor(x)
    c = x.data.shape[-1] // 2
    # Contiguous copies of the halves, as the unfused chain's slices make.
    a = np.tanh(x.data[..., :c].copy())
    s = T._sigmoid(x.data[..., c:].copy())

    def grad(g, x=x, a=a, s=s):
        gx = np.empty(x.data.shape)
        gx[..., :c] = (g * s) * (1.0 - a * a)
        gx[..., c:] = ((g * a) * s) * (1.0 - s)
        return gx

    return _unary(x, a * s, grad)


def attention_weights(h, centred, w1, w2, edge=None) -> Tensor:
    """Every head's pair softmax of per-node scores, [H, ..., N, N]."""
    h, w1, w2 = _as_tensor(h), _as_tensor(w1), _as_tensor(w2)
    heads, d_in = w1.data.shape
    inputs = [h, w1, w2]
    lead = h.data.shape[:-1]
    x2 = h.data.reshape(-1, d_in)
    src = w1.data @ x2.T
    dst = w2.data @ x2.T
    if edge is not None:
        W_e, b_e, a_e = (_as_tensor(t) for t in edge)
        inputs += [W_e, b_e, a_e]
        width = b_e.data.size
        centred = np.asarray(centred, dtype=np.float64)
        ae = np.ascontiguousarray(a_e.data.T)   # [width, H]
        b2 = b_e.data.reshape(1, width)
        c2 = centred.reshape(-1, 2)
        qv = (c2 @ (W_e.data @ ae)).T
        src = src + (b2 @ ae).reshape(heads, 1)
        src = src + qv
        dst = dst - qv
    record = _recording(inputs)
    y, grads = T._pair_softmax(src.reshape((heads,) + lead), dst.reshape((heads,) + lead),
                               record)
    out = Tensor(y)
    if not record:
        return out

    def bwd(g):
        gs, gd = (a.reshape(heads, -1) for a in grads(g))
        if h.requires_grad:
            _accumulate(h, (gd.T @ w2.data).reshape(h.data.shape))
        _accumulate(w2, gd @ x2)
        if h.requires_grad:
            _accumulate(h, (gs.T @ w1.data).reshape(h.data.shape))
        _accumulate(w1, gs @ x2)
        if edge is not None:
            gb = np.ascontiguousarray(gs.T).sum(axis=0).reshape(1, heads)
            _accumulate(b_e, (gb @ ae.T).reshape(width))
            gae = b2.T @ gb
            gv = c2.T @ (gs - gd).T
            _accumulate(W_e, gv @ ae.T)
            gae += W_e.data.T @ gv
            _accumulate(a_e, gae.T)

    _record(out, inputs, bwd)
    return out


def aggregate_heads(alpha, g) -> Tensor:
    """Every head's attention-weighted sum of its values, through leaky,
    heads side by side: [H, ..., N, N] and [H, ..., N, w] -> [..., N, H * w]."""
    alpha, g = _as_tensor(alpha), _as_tensor(g)
    a, v = alpha.data, g.data
    r = a.ndim - 3
    to_last = tuple(range(1, r + 2)) + (0, r + 2)
    to_first = (r + 1,) + tuple(range(r + 1)) + (r + 2,)
    pre = a @ v
    heads_last = np.ascontiguousarray(T._leaky(pre).transpose(to_last))
    out = Tensor(heads_last.reshape(heads_last.shape[:-2] + (-1,)))

    def bwd(gm):
        gl = np.array(gm.reshape(heads_last.shape).transpose(to_first), order="C")
        gl *= np.maximum(pre >= 0.0, T._SLOPE)
        if alpha.requires_grad:
            _accumulate(alpha, gl @ np.swapaxes(v, -1, -2))
        if g.requires_grad:
            _accumulate(g, np.swapaxes(a, -1, -2) @ gl)

    _record(out, [alpha, g], bwd)
    return out


def attention_layer(h, centred, w1, w2, val_W, val_b, res_W, res_b, edge=None):
    """The six-op chain of one attention layer, as the layer ran it."""
    g = tanh_gate(head_affine(h, val_W, val_b))
    alpha = attention_weights(h, centred, w1, w2, edge)
    out = T.add(aggregate_heads(alpha, g), T.affine(h, res_W, res_b))
    return out, alpha.data


def gated_conv(x, W, b, dilation):
    """The two-op chain of one gated TCN layer, as the layer ran it."""
    return gated_activation(T.conv1d_causal(x, W, b, dilation=dilation))
