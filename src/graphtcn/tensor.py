"""Dense float64 tensors with tape-based reverse-mode differentiation.

Everything numeric in the model runs through this module. Tensors wrap a
float64 numpy array (row-major, except the read-only views repeat_axis
returns and the channel-transposed view conv1d_causal returns); each
operation pairs a numpy forward pass with a hand-written backward rule
that is recorded on the active Tape whenever an operand requires
gradients. The op set is deliberately closed:
only what the model needs, no implicit broadcasting (a 0-d scalar operand
is the single exception in add/sub/mul). Three ops are fused chains, each
equal bit for bit to the chain it replaces: pair_softmax takes per-node
scores and returns the row-softmaxed [..., N, N] attention, so attention
logits never exist as separate N x N operands; head_affine runs every
attention head's affine map from a head-major weight block; and
gated_activation is the TCN's tanh(gate) * sigmoid(filter) over the two
halves of one convolution output.

Gradients accumulate into ``Tensor.grad`` buffers; callers zero them
explicitly between optimizer steps. Running ``backward`` twice on the same
tape without zeroing doubles every leaf gradient. An intermediate's first
gradient is stored as a copy, not added into zeros. affine, matmul and
conv1d_causal skip the products for an operand that needs no gradient.

ParameterStore keeps every parameter's data and gradient as views into
two flat buffers, so zeroing all gradients is one fill and an optimizer
step is a few whole-vector operations. Layers reserve blocks there in the
layout they compute on and place their named parameters inside them, so
no forward pass rebuilds a weight layout (see ParameterStore for the view
contract).
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .errors import ContractError, DomainError, NeighborhoodError, ShapeError


class Tensor:
    """A dense float64 array plus optional gradient buffer.

    Leaf tensors created with ``requires_grad=True`` get a zero gradient
    buffer immediately, so an untouched leaf reads as zero gradient after
    any backward pass. Tensors produced by operations start without a
    buffer; backward allocates one on demand.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.data) if self.requires_grad else None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def numpy(self) -> np.ndarray:
        return self.data

    def zero_grad(self):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        else:
            self.grad[...] = 0.0

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class _Node:
    """One recorded operation: output reference plus its backward rule."""

    __slots__ = ("out", "backward")

    def __init__(self, out, backward):
        self.out = out
        self.backward = backward


class Tape:
    """Ordered record of operations for one forward pass.

    Nodes are appended in execution order, so every node's operands
    precede it and a single reverse sweep visits each node exactly once.
    Use as a context manager; ops record themselves only while a tape is
    active on the current thread.
    """

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self):
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _tape_stack().pop()
        return False


_LOCAL = threading.local()


def _tape_stack() -> list:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = []
        _LOCAL.stack = stack
    return stack


def _active_tape():
    stack = _tape_stack()
    return stack[-1] if stack else None


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _accumulate(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if t.grad is None:
        # A copy, because g may be a view of another tensor's gradient. C
        # order keeps trained weights bit-identical to adding g into zeros;
        # a copy in g's own layout changed their last bits.
        t.grad = np.array(g, order="C")
    else:
        t.grad += g


def _record(out: Tensor, inputs, backward_fn):
    """Mark ``out`` differentiable and push a node if a tape is active."""
    tape = _active_tape()
    if tape is None or not any(t.requires_grad for t in inputs):
        return
    out.requires_grad = True
    tape.nodes.append(_Node(out, backward_fn))


def backward(root: Tensor, tape: Tape):
    """Reverse sweep over ``tape``, seeding d(root)/d(root) = 1.

    Leaf gradients accumulate across calls; intermediate gradients are
    reset at the start of each sweep so a second call over the same tape
    adds one more full gradient to every leaf.
    """
    if root.data.size != 1:
        raise ContractError(f"backward root must be scalar, got shape {root.shape}")
    for node in tape.nodes:
        if node.out.grad is not None:
            node.out.grad[...] = 0.0
    if root.grad is None:
        root.grad = np.zeros_like(root.data)
    root.grad += 1.0
    for node in reversed(tape.nodes):
        g = node.out.grad
        if g is None:
            continue
        node.backward(g)


# ---------------------------------------------------------------------------
# Core operations


def affine(x, W, b=None) -> Tensor:
    """x @ W + b over the last axis of x; leading axes pass through."""
    x, W = _as_tensor(x), _as_tensor(W)
    if W.data.ndim != 2:
        raise ShapeError(f"affine weight must be 2-d, got {W.shape}")
    if x.data.ndim < 1 or x.data.shape[-1] != W.data.shape[0]:
        raise ShapeError(f"affine mismatch: x {x.shape} vs W {W.shape}")
    if b is not None:
        b = _as_tensor(b)
        if b.data.shape != (W.data.shape[1],):
            raise ShapeError(f"affine bias {b.shape} vs W {W.shape}")
    lead = x.data.shape[:-1]
    x2 = x.data.reshape(-1, x.data.shape[-1])
    out_data = x2 @ W.data
    if b is not None:
        out_data = out_data + b.data
    out = Tensor(out_data.reshape(lead + (W.data.shape[1],)))

    def bwd(g, x=x, W=W, b=b, x2=x2, lead=lead):
        g2 = g.reshape(-1, g.shape[-1])
        if x.requires_grad:
            _accumulate(x, (g2 @ W.data.T).reshape(x.data.shape))
        _accumulate(W, x2.T @ g2)
        if b is not None:
            _accumulate(b, g2.sum(axis=0))

    _record(out, [x, W] + ([b] if b is not None else []), bwd)
    return out


def head_affine(x, W, b) -> Tensor:
    """Per-head affine maps: x [..., in], W [H, in, out], b [H, out] ->
    [H, ..., out], head k being x @ W[k] + b[k].

    Runs as one product over the heads laid side by side ([in, H * out]),
    and backward takes the input gradient as one product too, so every
    head sums in the order of an affine over the side-by-side weights.
    """
    x, W, b = _as_tensor(x), _as_tensor(W), _as_tensor(b)
    if W.data.ndim != 3:
        raise ShapeError(f"head_affine weight must be [H, in, out], got {W.shape}")
    heads, d_in, d_out = W.data.shape
    if x.data.ndim < 1 or x.data.shape[-1] != d_in:
        raise ShapeError(f"head_affine mismatch: x {x.shape} vs W {W.shape}")
    if b.data.shape != (heads, d_out):
        raise ShapeError(f"head_affine bias {b.shape} vs W {W.shape}")
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


def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes; leading axes must be equal."""
    a, b = _as_tensor(a), _as_tensor(b)
    if (a.data.ndim < 2 or b.data.ndim != a.data.ndim or a.data.shape[:-2] != b.data.shape[:-2]
            or a.data.shape[-1] != b.data.shape[-2]):
        raise ShapeError(f"matmul mismatch: {a.shape} vs {b.shape}")
    out = Tensor(a.data @ b.data)

    def bwd(g, a=a, b=b):
        if a.requires_grad:
            _accumulate(a, g @ np.swapaxes(b.data, -1, -2))
        if b.requires_grad:
            _accumulate(b, np.swapaxes(a.data, -1, -2) @ g)

    _record(out, [a, b], bwd)
    return out


def _binary(kind, a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    a_scalar, b_scalar = a.data.ndim == 0, b.data.ndim == 0
    if a.data.shape != b.data.shape and not (a_scalar or b_scalar):
        raise ShapeError(f"{kind} mismatch: {a.shape} vs {b.shape}")
    if kind == "add":
        out_data = a.data + b.data
    elif kind == "sub":
        out_data = a.data - b.data
    else:
        out_data = a.data * b.data
    out = Tensor(out_data)

    def bwd(g, a=a, b=b, kind=kind):
        if kind == "add":
            ga, gb = g, g
        elif kind == "sub":
            ga, gb = g, -g
        else:
            ga, gb = g * b.data, g * a.data
        _accumulate(a, ga.sum() if a.data.ndim == 0 and g.ndim > 0 else ga)
        _accumulate(b, gb.sum() if b.data.ndim == 0 and g.ndim > 0 else gb)

    _record(out, [a, b], bwd)
    return out


def add(a, b) -> Tensor:
    return _binary("add", a, b)


def sub(a, b) -> Tensor:
    return _binary("sub", a, b)


def mul(a, b) -> Tensor:
    return _binary("mul", a, b)


def leaky_relu(x, slope: float = 0.2) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(np.where(x.data >= 0.0, x.data, slope * x.data))

    def bwd(g, x=x, slope=slope):
        _accumulate(x, g * np.where(x.data >= 0.0, 1.0, slope))

    _record(out, [x], bwd)
    return out


def tanh(x) -> Tensor:
    x = _as_tensor(x)
    y = np.tanh(x.data)
    out = Tensor(y)

    def bwd(g, x=x, y=y):
        _accumulate(x, g * (1.0 - y * y))

    _record(out, [x], bwd)
    return out


def _sigmoid(d: np.ndarray) -> np.ndarray:
    # Split by sign to avoid overflow in exp.
    e = np.exp(-np.abs(d))
    return np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(x) -> Tensor:
    x = _as_tensor(x)
    y = _sigmoid(x.data)
    out = Tensor(y)

    def bwd(g, x=x, y=y):
        _accumulate(x, g * y * (1.0 - y))

    _record(out, [x], bwd)
    return out


def gated_activation(x, axis: int) -> Tensor:
    """tanh(first half) * sigmoid(second half) of ``x`` along ``axis``.

    WaveNet's gated activation on a stacked gate+filter output. Equals
    mul(tanh(slice_axis(x, ...)), sigmoid(slice_axis(x, ...))) bit for bit,
    as one op; backward keeps that chain's order of operations.
    """
    x = _as_tensor(x)
    axis = _norm_axis(axis, x.data.ndim)
    c2 = x.data.shape[axis]
    if c2 % 2:
        raise ShapeError(f"gated_activation needs an even extent at axis {axis}, got {x.shape}")
    first = [slice(None)] * x.data.ndim
    second = list(first)
    first[axis], second[axis] = slice(0, c2 // 2), slice(c2 // 2, c2)
    first, second = tuple(first), tuple(second)
    # Contiguous copies of the halves, as the unfused chain's slices make.
    a = np.tanh(x.data[first].copy())
    s = _sigmoid(x.data[second].copy())
    out = Tensor(a * s)

    def bwd(g, x=x, a=a, s=s):
        if x.requires_grad:
            gx = np.empty(x.data.shape)
            gx[first] = (g * s) * (1.0 - a * a)
            gx[second] = ((g * a) * s) * (1.0 - s)
            _accumulate(x, gx)

    _record(out, [x], bwd)
    return out


def exp(x) -> Tensor:
    x = _as_tensor(x)
    y = np.exp(x.data)
    out = Tensor(y)

    def bwd(g, x=x, y=y):
        _accumulate(x, g * y)

    _record(out, [x], bwd)
    return out


def log(x) -> Tensor:
    x = _as_tensor(x)
    bad = x.data <= 0.0
    if bad.any():
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise DomainError(f"log of non-positive element at index {idx}")
    out = Tensor(np.log(x.data))

    def bwd(g, x=x):
        _accumulate(x, g / x.data)

    _record(out, [x], bwd)
    return out


def sqrt(x) -> Tensor:
    x = _as_tensor(x)
    bad = x.data < 0.0
    if bad.any():
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise DomainError(f"sqrt of negative element at index {idx}")
    y = np.sqrt(x.data)
    out = Tensor(y)

    def bwd(g, x=x, y=y):
        _accumulate(x, g * 0.5 / y)

    _record(out, [x], bwd)
    return out


def concat(tensors, axis: int) -> Tensor:
    """Join tensors along ``axis``; all other extents must agree."""
    ts = [_as_tensor(t) for t in tensors]
    if not ts:
        raise ContractError("concat of an empty list")
    ndim = ts[0].data.ndim
    axis = _norm_axis(axis, ndim)
    for t in ts[1:]:
        if t.data.ndim != ndim:
            raise ShapeError(f"concat rank mismatch: {ts[0].shape} vs {t.shape}")
        for d in range(ndim):
            if d != axis and t.data.shape[d] != ts[0].data.shape[d]:
                raise ShapeError(f"concat extent mismatch: {ts[0].shape} vs {t.shape}")
    out = Tensor(np.concatenate([t.data for t in ts], axis=axis))

    def bwd(g, ts=ts, axis=axis):
        offset = 0
        for t in ts:
            n = t.data.shape[axis]
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offset, offset + n)
            _accumulate(t, g[tuple(sl)])
            offset += n

    _record(out, ts, bwd)
    return out


def slice_axis(x, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice along one axis."""
    x = _as_tensor(x)
    axis = _norm_axis(axis, x.data.ndim)
    if not (0 <= start <= stop <= x.data.shape[axis]):
        raise ShapeError(f"slice [{start}:{stop}] out of range for axis {axis} of {x.shape}")
    sl = [slice(None)] * x.data.ndim
    sl[axis] = slice(start, stop)
    out = Tensor(x.data[tuple(sl)].copy())

    def bwd(g, x=x, sl=tuple(sl)):
        if x.requires_grad:
            if x.grad is None:
                x.grad = np.zeros_like(x.data)
            x.grad[sl] += g

    _record(out, [x], bwd)
    return out


def reshape(x, shape) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(x.data.reshape(shape))

    def bwd(g, x=x):
        _accumulate(x, g.reshape(x.data.shape))

    _record(out, [x], bwd)
    return out


def transpose(x, axes) -> Tensor:
    x = _as_tensor(x)
    axes = tuple(axes)
    if sorted(axes) != list(range(x.data.ndim)):
        raise ShapeError(f"transpose axes {axes} invalid for shape {x.shape}")
    out = Tensor(np.ascontiguousarray(x.data.transpose(axes)))
    inv = [0] * len(axes)
    for i, a in enumerate(axes):
        inv[a] = i

    def bwd(g, x=x, inv=inv):
        _accumulate(x, g.transpose(inv))

    _record(out, [x], bwd)
    return out


def repeat_axis(x, axis: int, times: int) -> Tensor:
    """Explicit broadcast: tile a unit extent along ``axis`` ``times`` over.

    The result is a read-only broadcast view of ``x``, not a copy.
    """
    x = _as_tensor(x)
    axis = _norm_axis(axis, x.data.ndim)
    if x.data.shape[axis] != 1:
        raise ShapeError(f"repeat_axis needs extent 1 at axis {axis}, got {x.shape}")
    shape = x.data.shape[:axis] + (times,) + x.data.shape[axis + 1:]
    out = Tensor(np.broadcast_to(x.data, shape))

    def bwd(g, x=x, axis=axis):
        _accumulate(x, g.sum(axis=axis, keepdims=True))

    _record(out, [x], bwd)
    return out


def stack(tensors, axis: int = 0) -> Tensor:
    """Stack equal-shape tensors along a new axis (reshape + concat)."""
    ts = [_as_tensor(t) for t in tensors]
    expanded = [reshape(t, t.data.shape[:axis] + (1,) + t.data.shape[axis:]) for t in ts]
    if len(expanded) == 1:
        return expanded[0]
    return concat(expanded, axis=axis)


def masked_softmax(logits, mask) -> Tensor:
    """Row softmax over the last axis restricted to unmasked entries.

    Masked positions come out exactly 0. Rows are stabilized by
    subtracting the unmasked row maximum, so shifting a whole row by a
    constant leaves the output unchanged to rounding. A fully masked row
    is an error because it has no valid normalization.
    """
    x = _as_tensor(logits)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != x.data.shape:
        raise ShapeError(f"mask {mask.shape} vs logits {x.shape}")
    counts = mask.sum(axis=-1)
    if (counts == 0).any():
        row = tuple(int(i) for i in np.argwhere(counts == 0)[0])
        raise NeighborhoodError(f"fully masked row at index {row}")
    # One working array, updated in place, keeps the peak memory of large
    # batched attention logits at one extra array.
    y = np.where(mask, x.data, -np.inf)
    y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    out = Tensor(y)

    def bwd(g, x=x, y=y):
        inner = (g * y).sum(axis=-1, keepdims=True)
        _accumulate(x, y * (g - inner))

    _record(out, [x], bwd)
    return out


def pair_softmax(src, dst, slope: float = 0.2) -> Tensor:
    """Row softmax of leaky_relu(src[..., i] + dst[..., j]) over j.

    ``src`` and ``dst`` are [..., N] per-node scores; the result is
    [..., N, N]. Equals masked_softmax(leaky_relu(src_i + dst_j)) with
    nothing masked, without the N x N operands of that chain: the logits
    are built once and normalized in place. Backward folds the softmax
    and leaky_relu rules into one logit gradient, whose row sums go to
    ``src`` and column sums to ``dst``.
    """
    src, dst = _as_tensor(src), _as_tensor(dst)
    if src.data.ndim < 1 or src.data.shape != dst.data.shape:
        raise ShapeError(f"pair_softmax operands {src.shape} vs {dst.shape}")
    y = src.data[..., :, None] + dst.data[..., None, :]
    neg = y < 0.0
    np.multiply(y, slope, out=y, where=neg)
    y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    out = Tensor(y)

    def bwd(g, src=src, dst=dst, y=y, neg=neg, slope=slope):
        gl = g * y
        gl -= y * gl.sum(axis=-1, keepdims=True)
        np.multiply(gl, slope, out=gl, where=neg)
        _accumulate(src, gl.sum(axis=-1))
        _accumulate(dst, gl.sum(axis=-2))

    _record(out, [src, dst], bwd)
    return out


def conv1d_causal(x, W, b=None, dilation: int = 1) -> Tensor:
    """Causal 1-d convolution with left zero padding of (k-1)*dilation.

    ``x`` is [C_in, T] or batched [B, C_in, T]; ``W`` is [C_out, C_in, k].
    Output keeps the input length, and out[..., t] depends only on
    x[..., 0..t]: tap k-1 reads the current step, lower taps read the
    past. Runs as one im2col matmul: row (b, t) of the column block holds
    the k dilated taps of every input channel, in the (C_in, k) order of
    ``W.reshape(C_out, C_in * k)``, with zeros where a tap reads before
    step 0. The result is a [B, C_out, T] view of the [B, T, C_out]
    product. Backward is the transpose: two matmuls, then the k tap slices
    of the column gradient are added back onto the input steps they read.
    """
    x, W = _as_tensor(x), _as_tensor(W)
    if dilation < 1:
        raise ShapeError(f"dilation must be >= 1, got {dilation}")
    if W.data.ndim != 3:
        raise ShapeError(f"conv weight must be [C_out, C_in, k], got {W.shape}")
    batched = x.data.ndim == 3
    if x.data.ndim not in (2, 3):
        raise ShapeError(f"conv input must be [C_in, T] or [B, C_in, T], got {x.shape}")
    c_out, c_in, k = W.data.shape
    if x.data.shape[-2] != c_in:
        raise ShapeError(f"conv channel mismatch: x {x.shape} vs W {W.shape}")
    if b is not None:
        b = _as_tensor(b)
        if b.data.shape != (c_out,):
            raise ShapeError(f"conv bias {b.shape} vs W {W.shape}")
    t_len = x.data.shape[-1]
    xb = x.data if batched else x.data[None]
    n = xb.shape[0]
    # Tap j reads step t - shift[j]; the first shift[j] steps read padding.
    shifts = [(k - 1 - j) * dilation for j in range(k)]
    cols4 = np.zeros((n, t_len, c_in, k))
    x_t = xb.transpose(0, 2, 1)
    for j, s in enumerate(shifts):
        if s < t_len:
            cols4[:, s:, :, j] = x_t[:, : t_len - s]
    cols = cols4.reshape(n * t_len, c_in * k)
    W2 = W.data.reshape(c_out, c_in * k)
    out2 = cols @ W2.T
    if b is not None:
        out2 += b.data
    out_data = out2.reshape(n, t_len, c_out).transpose(0, 2, 1)
    out = Tensor(out_data if batched else out_data[0])

    def bwd(g, x=x, W=W, b=b, cols=cols, W2=W2, batched=batched):
        g2 = (g if batched else g[None]).transpose(0, 2, 1).reshape(n * t_len, c_out)
        _accumulate(W, (g2.T @ cols).reshape(W.data.shape))
        if b is not None:
            _accumulate(b, g2.sum(axis=0))
        if x.requires_grad:
            gcols = (g2 @ W2).reshape(n, t_len, c_in, k)
            gx_t = np.zeros((n, t_len, c_in))
            for j, s in enumerate(shifts):
                if s < t_len:
                    gx_t[:, : t_len - s] += gcols[:, s:, :, j]
            gx = gx_t.transpose(0, 2, 1)
            _accumulate(x, gx if batched else gx[0])

    _record(out, [x, W] + ([b] if b is not None else []), bwd)
    return out


def reduce_sum(x, axis=None) -> Tensor:
    return _reduce("sum", x, axis)


def reduce_mean(x, axis=None) -> Tensor:
    return _reduce("mean", x, axis)


def reduce_min(x, axis=None) -> Tensor:
    """Minimum reduction; backward routes to the arg-min (lowest index on ties)."""
    return _reduce("min", x, axis)


def _reduce(kind, x, axis):
    x = _as_tensor(x)
    if x.data.size == 0:
        raise ShapeError(f"{kind} over empty tensor of shape {x.shape}")
    if axis is not None:
        axis = _norm_axis(axis, x.data.ndim)
    if kind == "sum":
        out_data = x.data.sum(axis=axis)
    elif kind == "mean":
        out_data = x.data.mean(axis=axis)
    else:
        out_data = x.data.min(axis=axis)
    out = Tensor(out_data)

    def bwd(g, x=x, axis=axis, kind=kind):
        if kind in ("sum", "mean"):
            scale = 1.0
            if kind == "mean":
                scale = 1.0 / (x.data.size if axis is None else x.data.shape[axis])
            if axis is None:
                _accumulate(x, np.full_like(x.data, float(g) * scale))
            else:
                _accumulate(x, np.expand_dims(g, axis) * scale * np.ones_like(x.data))
        else:
            gx = np.zeros_like(x.data)
            if axis is None:
                flat_idx = int(np.argmin(x.data.reshape(-1)))
                gx.reshape(-1)[flat_idx] = float(g)
            else:
                idx = np.argmin(x.data, axis=axis)
                np.put_along_axis(
                    gx, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis
                )
            _accumulate(x, gx)

    _record(out, [x], bwd)
    return out


def _norm_axis(axis: int, ndim: int) -> int:
    a = axis + ndim if axis < 0 else axis
    if not (0 <= a < ndim):
        raise ShapeError(f"axis {axis} out of range for rank {ndim}")
    return a


# ---------------------------------------------------------------------------
# Parameters and the finite-difference oracle


class ParameterStore:
    """Named, ordered, shaped learnable parameters; the checkpoint unit.

    Every parameter's ``data`` and ``grad`` are views into two contiguous
    float64 buffers, so an optimizer step or a gradient reset is a handful
    of whole-vector operations. Names keep the order they were added in,
    which is the checkpoint order; the buffer order can differ. A layer may
    ``reserve`` one block per weight in the layout it computes on (all
    heads together, or gate and filter together) and ``add`` its names at
    offsets inside that block: the layer then computes on the block, while
    every named entry stays a C-contiguous view that sees each update.
    ``view`` derives one more view (a transpose, a subset of rows) of a
    block or a named entry, for an op that wants another layout. The
    buffers double in capacity while space is taken; every tensor already
    handed out (name, block or view) is re-pointed at the new buffers, so
    it stays valid.

    The view contract: write ``data`` in place (never rebind it). A caller
    may rebind a named entry's ``grad``; ``zero_grads`` points it back at
    its view, and ``Adam.step`` copies it into the buffer. An ``Adam``
    sizes its moments from the store when it is built, so the store must
    not take more space after that.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._grad_views: list[np.ndarray] = []
        # id(tensor) -> the function that cuts its view from a buffer, for
        # every tensor handed out; blocks and views also keep a list.
        self._makes: dict[int, object] = {}
        self._other_makes: list = []
        # id(block) -> (start, stop, [(start, stop, name) placed inside]).
        self._blocks: dict[int, tuple] = {}
        self._size = 0
        self._data = np.zeros(0)
        self._grad = np.zeros(0)

    def add(self, name: str, values: np.ndarray, block: Tensor = None,
            offset: int = 0) -> Tensor:
        """Register ``name`` with initial ``values``.

        Without ``block`` the values take fresh space at the end of the
        buffers. With ``block`` (a tensor from ``reserve``) they are placed
        ``offset`` values into it; the placement must lie inside the block
        and must not overlap a name placed there before.
        """
        if name in self._params:
            raise ContractError(f"duplicate parameter name {name!r}")
        values = np.asarray(values, dtype=np.float64)
        if block is None:
            start = self._take(values.size)
        else:
            start = self._place(name, block, offset, values.size)
        make = _region(start, values.shape)
        t = self._hand_out(make)
        t.data[...] = values
        self._params[name] = t
        self._grad_views.append(t.grad)
        return t

    def reserve(self, shape) -> Tensor:
        """Take one zeroed block of ``shape`` for names to be placed into."""
        shape = tuple(shape)
        size = math.prod(shape)
        start = self._take(size)
        make = _region(start, shape)
        t = self._hand_out(make)
        self._other_makes.append((t, make))
        self._blocks[id(t)] = (start, start + size, [])
        return t

    def view(self, base: Tensor, fn) -> Tensor:
        """A tensor whose data and grad are ``fn`` of ``base``'s, where
        ``base`` is a name, block or view of this store and ``fn`` returns
        a view (not a copy) of the array it is given."""
        base_make = self._makes.get(id(base))
        if base_make is None:
            raise ContractError("view of a tensor this store did not hand out")

        def make(buf, base_make=base_make, fn=fn):
            return fn(base_make(buf))

        if base.size and not np.may_share_memory(make(self._data), self._data):
            raise ContractError("view function returned a copy, not a view")
        t = self._hand_out(make)
        self._other_makes.append((t, make))
        return t

    def _take(self, size: int) -> int:
        start, stop = self._size, self._size + size
        if stop > self._data.size:
            self._grow(max(stop, 2 * self._data.size))
        self._size = stop
        return start

    def _place(self, name: str, block: Tensor, offset: int, size: int) -> int:
        entry = self._blocks.get(id(block))
        if entry is None:
            raise ContractError(f"{name!r}: block was not reserved in this store")
        start, stop, placed = entry
        lo, hi = start + offset, start + offset + size
        if offset < 0 or hi > stop:
            raise ContractError(
                f"{name!r}: values [{offset}, {offset + size}) outside a block of {stop - start}")
        for a, b, other in placed:
            if lo < b and a < hi:
                raise ContractError(f"{name!r} overlaps {other!r} in its block")
        placed.append((lo, hi, name))
        return lo

    def _hand_out(self, make) -> Tensor:
        t = Tensor(make(self._data))
        t.requires_grad = True
        t.grad = make(self._grad)
        self._makes[id(t)] = make
        return t

    def _grow(self, capacity: int):
        data, grad = np.zeros(capacity), np.zeros(capacity)
        data[:self._size] = self._data[:self._size]
        grad[:self._size] = self._grad[:self._size]
        self._data, self._grad = data, grad
        for i, t in enumerate(self._params.values()):
            make = self._makes[id(t)]
            t.data = make(data)
            view = make(grad)
            if t.grad is self._grad_views[i]:
                t.grad = view
            self._grad_views[i] = view
        for t, make in self._other_makes:
            t.data, t.grad = make(data), make(grad)

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def tensors(self) -> list[Tensor]:
        return list(self._params.values())

    def flat(self) -> tuple[np.ndarray, np.ndarray]:
        """The data and gradient buffers as two vectors, in buffer order."""
        return self._data[:self._size], self._grad[:self._size]

    def grad_views(self) -> list[np.ndarray]:
        """Each parameter's view into the gradient buffer, in name order."""
        return self._grad_views

    def zero_grads(self):
        for t, view in zip(self._params.values(), self._grad_views):
            t.grad = view
        self._grad[:self._size] = 0.0

    def n_values(self) -> int:
        return self._size

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self._params.items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]):
        """Overwrite every parameter; validates all names and shapes first."""
        if set(arrays) != set(self._params):
            missing = set(self._params) - set(arrays)
            extra = set(arrays) - set(self._params)
            raise ContractError(f"parameter name mismatch: missing={sorted(missing)}, extra={sorted(extra)}")
        checked = []
        for name, t in self._params.items():
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != t.data.shape:
                raise ShapeError(f"parameter {name!r}: stored {arr.shape} vs expected {t.data.shape}")
            checked.append((t, arr))
        for t, arr in checked:
            t.data[...] = arr


def _region(start: int, shape: tuple):
    """The view of ``shape`` that starts ``start`` values into a buffer."""
    stop = start + math.prod(shape)

    def make(buf):
        return buf[start:stop].reshape(shape)

    return make


def finite_difference_check(f, params: ParameterStore, h: float = 1e-5) -> float:
    """Compare tape gradients of a scalar function against central differences.

    ``f`` maps the store to a scalar Tensor and must be deterministic (any
    randomness drawn ahead of time and frozen). Returns the worst relative
    error |analytic - numeric| / max(1e-12, |analytic| + |numeric|) over
    every parameter element.
    """
    if h <= 0:
        raise ContractError(f"h must be positive, got {h}")
    with Tape() as tape:
        out = f(params)
        if out.data.size != 1:
            raise ContractError("finite_difference_check needs a scalar-valued f")
        params.zero_grads()
        backward(out, tape)
    if not np.isfinite(out.data).all():
        raise DomainError(f"non-finite objective value {out.data!r}")
    analytic = {name: t.grad.copy() for name, t in params.items()}

    worst = 0.0
    for name, t in params.items():
        flat = t.data.reshape(-1)
        if flat.size and not np.may_share_memory(flat, t.data):
            raise ContractError(f"parameter {name!r} is not contiguous; perturbing it would "
                                "change a copy")
        aflat = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = f(params).item()
            flat[i] = orig - h
            f_minus = f(params).item()
            flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise DomainError(f"non-finite objective while perturbing {name}[{i}]")
            numeric = (f_plus - f_minus) / (2.0 * h)
            err = abs(aflat[i] - numeric) / max(1e-12, abs(aflat[i]) + abs(numeric))
            worst = max(worst, err)
    return worst
