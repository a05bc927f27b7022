"""Dense float64 tensors with tape-based reverse-mode differentiation.

Everything numeric in the model runs through this module. Tensors wrap a
float64 numpy array (row-major, except the read-only views repeat_axis
returns); each operation pairs a numpy forward pass with a backward
rule. The op set is deliberately closed: only what the model needs, no
implicit broadcasting (a 0-d scalar operand is the single exception in
add/sub/mul). At the model's sizes an op costs more in Python dispatch
than in arithmetic, so four ops are fused chains, each equal bit for bit
to the chain it replaces, gradients included (best_of_m_ade's only where
the chain's gradient is finite):
  attention_layer    a whole graph-attention layer, every head at once:
                     the values' affine map and x * tanh(x) gate, the
                     per-node attention scores (node features, and the
                     edge term folded in) and their row softmax, so
                     logits never exist as separate N x N operands, each
                     head's attention-weighted sum through leaky with the
                     heads side by side, and the residual affine map;
  gated_conv         a whole gated TCN layer: one causal convolution over
                     the gate and filter weights, then tanh(gate) *
                     sigmoid(filter) over the two halves of its output;
  draw_affine        the decoder's first affine map over [M draws, N
                     nodes], from a per-node and a per-draw part;
  best_of_m_ade      the variety loss and every displacement metric: the
                     least, over M draws, of the mean step distance to
                     the target.
A fused op replays the numpy expressions of its chain, and its backward
adds into each input in the order the chain's tape sweep did. Off the
tape, the two layer ops drop each large temporary where the chain
dropped it, so no more of them are alive at once.

No kernel the model calls makes a data-dependent select (numpy's where,
or a ufunc masked by a where argument): numpy runs those several times
slower than plain arithmetic, and each select-free form below equals the
select form bit for bit, signed zeros, infinities and NaN included.
Every leaky step uses GAT's slope 0.2: leaky_relu is max(x, 0.2 * x)
and its gradient factor max(x >= 0, 0.2). The logistic numerator is
max(exp(-|d|), d >= 0). attention_layer's softmax kernel takes each
row's maximum from the per-node scores as leaky(src_i + max_j dst_j)
instead of reducing the N x N logits: rounding the sum and leaky are
both monotone non-decreasing, so that is exactly the row's largest
logit. (With a non-finite score, its rows are NaN in both forms, with
NaN bits that may differ.) masked_softmax keeps its select: nothing in
the model calls it, and the acceptance gates test_01 and test_02 pin it.
best_of_m_ade's backward divides under a where mask, once per training
step over one draw's [N, T] distances, so that a step at distance 0
takes gradient 0 where the chain's 0 / 0 gave NaN.

Recording follows one rule: an op pushes one node onto the tape active
on the current thread if, and only if, one of its inputs requires
gradients. A single-input op states only its result and its input
gradient as a function of the output gradient (``_unary``); add, sub and
mul state their forward ufunc and one gradient function per operand
(``_binary``). affine, draw_affine, matmul, conv1d_causal, gated_conv,
attention_layer, concat and slice_axis keep hand-written backward rules:
each shares one intermediate across several inputs or writes into a
slice of a gradient. conv1d_causal and gated_conv share ``_conv``'s
convolution rule.

Gradients accumulate into ``Tensor.grad`` buffers. Only leaves keep
theirs after a sweep: ``backward`` hands each intermediate's gradient to
its rule and then drops it. Callers zero leaf gradients explicitly
between optimizer steps; running ``backward`` twice on the same tape
without zeroing adds one more full gradient to every leaf. Every
gradient, the sweep's seed included, is stored or added by
``_accumulate``, under one ownership rule: a backward rule hands each
input the output gradient itself, a view of it that overlaps no other
input's view, or an array the rule has just built. So an intermediate's
first gradient is stored, not added into zeros, C-ordered and copied
only if it is not, and no two tensors share a gradient buffer. Only
these operands skip the work of a gradient when they need none, since
the model passes them constants: affine's input (the features, the
future offsets), draw_affine's per-draw part (the noise) and either
operand of add, sub and mul (the origins, the KL's ones). Every other
rule computes each input's gradient, and ``_accumulate`` drops any that
an input does not take.

ParameterStore keeps every parameter's data and gradient as views into
two flat buffers, so zeroing all gradients is one fill and an optimizer
step is a few whole-vector operations. Layers reserve blocks there in the
layout they compute on and add their named parameters in order, each
taking the block's next free values (see ParameterStore for the view
contract). attention_layer still copies two weights on every call: a
multi-head [heads, in, out] value block into [in, heads * out], and a_e
into [width, heads].
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .errors import ContractError, DomainError, NeighborhoodError, ShapeError


class Tensor:
    """A dense float64 array plus optional gradient buffer.

    A tensor built here is a constant. Gradient leaves come only from a
    ParameterStore, whose tensors hold a gradient view from the start, so
    an untouched leaf reads as zero gradient after any backward pass.
    Tensors produced by operations start without a buffer; backward
    allocates one on demand and drops it once used.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = False
        self.grad = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

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
        _ACTIVE.stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _ACTIVE.stack.pop()
        return False


class _Active(threading.local):
    """The stack of entered tapes, one per thread; the last is active."""

    def __init__(self):
        self.stack: list[Tape] = []


_ACTIVE = _Active()


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _accumulate(t: Tensor, g: np.ndarray):
    """Add ``g`` into ``t``'s gradient, if ``t`` requires one: the only
    place that stores or adds a gradient.

    A backward rule hands each input the output gradient itself, a view of
    it that overlaps no other input's view, or an array it has just built,
    so a stored g is held by ``t`` alone and later gradients add into it in
    place. A first gradient is stored C-ordered, copied only if g is not
    (C order keeps trained weights bit-identical to adding g into zeros; a
    copy in g's own layout changed their last bits).
    """
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.asarray(g, order="C")
    else:
        t.grad += g


def _recording(inputs) -> bool:
    """Whether an op on ``inputs`` pushes a node: a tape is active and one
    of them requires gradients."""
    return bool(_ACTIVE.stack) and any(t.requires_grad for t in inputs)


def _record(out: Tensor, inputs, backward_fn):
    """Mark ``out`` differentiable and push a node if ``_recording``."""
    if not _recording(inputs):
        return
    out.requires_grad = True
    _ACTIVE.stack[-1].nodes.append(_Node(out, backward_fn))


def _unary(x: Tensor, y, grad) -> Tensor:
    """The result ``y`` of a single-input op on ``x``; backward adds
    ``grad(g)``, g itself, a view of it or a new array, into ``x``."""
    out = Tensor(y)
    _record(out, (x,), lambda g, x=x, grad=grad: _accumulate(x, grad(g)))
    return out


def backward(root: Tensor, tape: Tape):
    """Reverse sweep over ``tape``, seeding d(root)/d(root) = 1.

    Each intermediate's gradient goes to its node's rule and is then
    dropped, so afterwards only leaves hold gradients. Leaf gradients
    accumulate across calls: a second call over the same tape adds one more
    full gradient to every leaf.
    """
    if root.data.size != 1:
        raise ContractError(f"backward root must be scalar, got shape {root.shape}")
    _accumulate(root, np.ones_like(root.data))
    for node in reversed(tape.nodes):
        g, node.out.grad = node.out.grad, None
        if g is not None:
            node.backward(g)


# ---------------------------------------------------------------------------
# Core operations


def affine(x, W, b) -> Tensor:
    """x @ W + b over the last axis of x; leading axes pass through."""
    x, W, b = _as_tensor(x), _as_tensor(W), _as_tensor(b)
    if W.data.ndim != 2:
        raise ShapeError(f"affine weight must be 2-d, got {W.shape}")
    if x.data.ndim < 1 or x.data.shape[-1] != W.data.shape[0]:
        raise ShapeError(f"affine mismatch: x {x.shape} vs W {W.shape}")
    if b.data.shape != (W.data.shape[1],):
        raise ShapeError(f"affine bias {b.shape} vs W {W.shape}")
    lead = x.data.shape[:-1]
    x2 = x.data.reshape(-1, x.data.shape[-1])
    out_data = x2 @ W.data + b.data
    out = Tensor(out_data.reshape(lead + (W.data.shape[1],)))

    def bwd(g, x=x, W=W, b=b, x2=x2, lead=lead):
        g2 = g.reshape(-1, g.shape[-1])
        if x.requires_grad:
            _accumulate(x, (g2 @ W.data.T).reshape(x.data.shape))
        _accumulate(W, x2.T @ g2)
        _accumulate(b, g2.sum(axis=0))

    _record(out, [x, W, b], bwd)
    return out


def draw_affine(shared, per_draw, W, b, groups: int) -> Tensor:
    """concat(shared, per_draw) @ W + b for every draw and node, without
    the concatenation: [M, N, width].

    ``shared`` [N, groups * S] varies over nodes only. ``per_draw`` is
    [M, groups * D], the same for every node of a draw, or [M, N, groups
    * D]. The rows of ``W`` [groups * (S + D), width] come in ``groups``
    blocks of S shared rows followed by D draw rows; ``b`` is [width].

    One op for the chain affine, reshape, repeat_axis and add ops it
    replaces, equal to that chain bit for bit: the forward runs the
    chain's numpy expressions on the two row sets of W, and backward adds
    into each input as the chain's tape sweep did.
    """
    shared, per_draw, W, b = (_as_tensor(t) for t in (shared, per_draw, W, b))
    s2, p = shared.data, per_draw.data
    if b.data.ndim != 1 or W.data.shape[1:] != b.data.shape or groups < 1:
        raise ShapeError(f"draw_affine weight {W.shape}, bias {b.shape}, {groups} groups")
    width = b.data.shape[0]
    if s2.ndim != 2 or s2.shape[1] % groups:
        raise ShapeError(f"draw_affine shared input {shared.shape} for {groups} groups")
    n, m = s2.shape[0], p.shape[0] if p.ndim else 0
    if (p.ndim not in (2, 3) or p.shape[-1] % groups or p.shape[1:-1] not in ((), (n,))
            or W.data.shape[0] != s2.shape[1] + p.shape[-1]):
        raise ShapeError(f"draw_affine per-draw input {per_draw.shape} vs weight {W.shape} "
                         f"for {n} nodes of {shared.shape[1]} shared values")
    per_node = p.ndim == 3
    S = s2.shape[1] // groups
    rows = W.data.reshape(groups, -1, width)
    Ws, Wd = rows[:, :S].reshape(-1, width), rows[:, S:].reshape(-1, width)
    p2 = p.reshape(-1, Wd.shape[0])
    s = s2 @ Ws
    s = s + b.data
    d = p2 @ Wd
    out = Tensor(np.add(s, d.reshape(m, n, width) if per_node else d[:, None]))

    def bwd(g):
        gs = g.sum(axis=0)
        gd = g.reshape(-1, width) if per_node else g.sum(axis=1)
        _accumulate(shared, gs @ Ws.T)
        gW = np.empty(rows.shape)
        gW[:, :S] = (s2.T @ gs).reshape(groups, S, width)
        gW[:, S:] = (p2.T @ gd).reshape(groups, -1, width)
        _accumulate(W, gW.reshape(W.data.shape))
        _accumulate(b, gs.sum(axis=0))
        if per_draw.requires_grad:
            _accumulate(per_draw, (gd @ Wd.T).reshape(p.shape))

    _record(out, [shared, per_draw, W, b], bwd)
    return out


def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes; leading axes must be equal."""
    a, b = _as_tensor(a), _as_tensor(b)
    if (a.data.ndim < 2 or b.data.ndim != a.data.ndim or a.data.shape[:-2] != b.data.shape[:-2]
            or a.data.shape[-1] != b.data.shape[-2]):
        raise ShapeError(f"matmul mismatch: {a.shape} vs {b.shape}")
    out = Tensor(a.data @ b.data)

    def bwd(g, a=a, b=b):
        _accumulate(a, g @ np.swapaxes(b.data, -1, -2))
        _accumulate(b, np.swapaxes(a.data, -1, -2) @ g)

    _record(out, [a, b], bwd)
    return out


def _binary(a, b, forward, grad_a, grad_b) -> Tensor:
    """Elementwise ``forward`` of two equal-shape operands, or of one
    operand and a 0-d scalar. Backward adds ``grad_a(g, a, b)`` into ``a``
    and ``grad_b(g, a, b)`` into ``b``, summed to a scalar for a 0-d
    operand, for each operand that needs a gradient. A gradient function
    returns g itself (the first operand of add and sub) or a new array, so
    the two operands never share one buffer."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.shape != b.data.shape and a.data.ndim and b.data.ndim:
        raise ShapeError(f"{forward.__name__} mismatch: {a.shape} vs {b.shape}")
    out = Tensor(forward(a.data, b.data))

    def bwd(g, a=a, b=b, grad_a=grad_a, grad_b=grad_b):
        for t, grad in ((a, grad_a), (b, grad_b)):
            if t.requires_grad:
                gt = grad(g, a, b)
                if t.data.ndim == 0 and g.ndim > 0:
                    gt = gt.sum()
                _accumulate(t, gt)

    _record(out, (a, b), bwd)
    return out


def add(a, b) -> Tensor:
    return _binary(a, b, np.add, lambda g, a, b: g, lambda g, a, b: +g)


def sub(a, b) -> Tensor:
    return _binary(a, b, np.subtract, lambda g, a, b: g, lambda g, a, b: -g)


def mul(a, b) -> Tensor:
    return _binary(a, b, np.multiply, lambda g, a, b: g * b.data, lambda g, a, b: g * a.data)


# The leaky_relu slope of the attention logits and of every other leaky
# step in the model.
_SLOPE = 0.2


def _leaky(v: np.ndarray) -> np.ndarray:
    """A new array max(v, _SLOPE * v): v where v >= 0, else _SLOPE * v."""
    out = np.multiply(v, _SLOPE)
    return np.maximum(v, out, out=out)


def leaky_relu(x) -> Tensor:
    x = _as_tensor(x)
    # max(x >= 0, _SLOPE) is 1 where x >= 0, else _SLOPE.
    return _unary(x, _leaky(x.data),
                  lambda g, x=x: g * np.maximum(x.data >= 0.0, _SLOPE))


def tanh(x) -> Tensor:
    x = _as_tensor(x)
    y = np.tanh(x.data)
    return _unary(x, y, lambda g, y=y: g * (1.0 - y * y))


def _sigmoid(d: np.ndarray) -> np.ndarray:
    # 1 / (1 + e) where d >= 0 and e / (1 + e) elsewhere, with e =
    # exp(-|d|) so exp never overflows. As e <= 1, max(e, d >= 0) is that
    # numerator exactly.
    e = np.abs(d)
    np.negative(e, out=e)
    np.exp(e, out=e)
    den = 1.0 + e
    np.maximum(e, d >= 0, out=e)
    e /= den
    return e


def sigmoid(x) -> Tensor:
    x = _as_tensor(x)
    y = _sigmoid(x.data)
    return _unary(x, y, lambda g, y=y: g * y * (1.0 - y))


def exp(x) -> Tensor:
    x = _as_tensor(x)
    y = np.exp(x.data)
    return _unary(x, y, lambda g, y=y: g * y)


def log(x) -> Tensor:
    x = _as_tensor(x)
    _check_domain(x.data <= 0.0, "log of non-positive")
    return _unary(x, np.log(x.data), lambda g, x=x: g / x.data)


def sqrt(x) -> Tensor:
    x = _as_tensor(x)
    _check_domain(x.data < 0.0, "sqrt of negative")
    y = np.sqrt(x.data)
    return _unary(x, y, lambda g, y=y: g * 0.5 / y)


def _check_domain(bad: np.ndarray, what: str):
    if bad.any():
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise DomainError(f"{what} element at index {idx}")


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
        gx = np.zeros(x.data.shape)
        gx[sl] = g
        _accumulate(x, gx)

    _record(out, [x], bwd)
    return out


def reshape(x, shape) -> Tensor:
    x = _as_tensor(x)
    return _unary(x, x.data.reshape(shape), lambda g, x=x: g.reshape(x.data.shape))


def transpose(x, axes) -> Tensor:
    x = _as_tensor(x)
    axes = tuple(axes)
    if sorted(axes) != list(range(x.data.ndim)):
        raise ShapeError(f"transpose axes {axes} invalid for shape {x.shape}")
    inv = [0] * len(axes)
    for i, a in enumerate(axes):
        inv[a] = i
    return _unary(x, np.ascontiguousarray(x.data.transpose(axes)),
                  lambda g, inv=inv: g.transpose(inv))


def repeat_axis(x, axis: int, times: int) -> Tensor:
    """Explicit broadcast: tile a unit extent along ``axis`` ``times`` over.

    The result is a read-only broadcast view of ``x``, not a copy.
    """
    x = _as_tensor(x)
    axis = _norm_axis(axis, x.data.ndim)
    if x.data.shape[axis] != 1:
        raise ShapeError(f"repeat_axis needs extent 1 at axis {axis}, got {x.shape}")
    shape = x.data.shape[:axis] + (times,) + x.data.shape[axis + 1:]
    return _unary(x, np.broadcast_to(x.data, shape),
                  lambda g, axis=axis: g.sum(axis=axis, keepdims=True))


def stack(tensors, axis: int = 0) -> Tensor:
    """Stack equal-shape tensors along a new axis: a reshape of each, then
    one concat, also for a single tensor."""
    ts = [_as_tensor(t) for t in tensors]
    expanded = [reshape(t, t.data.shape[:axis] + (1,) + t.data.shape[axis:]) for t in ts]
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
    return _unary(x, y, lambda g, y=y: y * (g - (g * y).sum(axis=-1, keepdims=True)))


def _pair_softmax(s: np.ndarray, d: np.ndarray, record: bool):
    """The kernel of attention_layer's softmax: the [..., N, N] row softmax of
    leaky(s_i + d_j) for [..., N] scores, and, if ``record``, its
    backward, which maps the attention gradient to the (s, d) gradients
    (else None). Backward folds the softmax and leaky rules into one
    logit gradient, whose row sums go to s and column sums to d."""
    y = s[..., :, None] + d[..., None, :]
    pos = y >= 0.0 if record else None
    y = _leaky(y)
    # Row i's maximum without an N x N reduction: rounding and leaky are
    # both monotone non-decreasing, so it is leaky(s_i + max_j d_j).
    y -= _leaky(s + d.max(axis=-1, keepdims=True))[..., None]
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    if not record:
        return y, None

    def grads(g, y=y, pos=pos):
        gl = g * y
        gl -= y * gl.sum(axis=-1, keepdims=True)
        gl *= np.maximum(pos, _SLOPE)
        return gl.sum(axis=-1), gl.sum(axis=-2)

    return y, grads


def attention_layer(h, centred, w1, w2, val_W, val_b, res_W, res_b, edge=None):
    """One graph-attention layer of H heads over h [..., N, in]: returns
    the [..., N, H * out] output and the [H, ..., N, N] attention, an
    array through which no gradient flows.

    Row i of head k is the softmax over j of leaky(w1[k] . h_i + w2[k] .
    h_j + a_e[k] . edge_ij). It weighs the gated values u * tanh(u), u =
    h @ val_W[k] + val_b[k], and the head is leaky of that sum, in columns
    k * out to (k + 1) * out; the residual h @ res_W + res_b is added.
    ``w1``, ``w2`` are [H, in], ``val_W`` [H, in, out], ``val_b`` [H,
    out], ``res_W`` [in, H * out], ``res_b`` [H * out]. With ``edge`` =
    (W_edge [2, width], b_edge [width], a_e [H, width]), edge_ij is (c_i -
    c_j) @ W_edge + b_edge for the constant positions ``centred`` [..., N,
    2]; without it ``centred`` is unused. The edge term is linear in the
    displacement, a_e . edge_ij = c_i . v - c_j . v + b_edge . a_e with v
    = W_edge @ a_e, so every logit is the sum of two per-node scores and
    the N x N edges are never built.

    One op for the layer's chain (an affine over the value weights side by
    side, heads moved first, and mul(tanh(u), u); the affine, add, sub and
    transpose ops of the scores and their pair softmax; matmul, leaky_relu,
    transpose and reshape for the heads' sums; the residual affine and an
    add), equal to it bit for bit: the forward runs the chain's numpy
    expressions, and backward adds into each input in the order the
    chain's tape sweep did. h takes the residual term, then the w2 term,
    then the w1 term, then the value term; the shared c . v score takes
    -g_dst, then +g_src. Scores are head-major, [H, L] for the L nodes of
    ``lead``. b_edge's gradient alone sums g_src over nodes from a
    C-ordered [L, H] copy: that adds the node rows one by one as the chain
    did, where a sum along the contiguous head-major rows would take
    numpy's pairwise order and round differently.
    """
    h, w1, w2, val_W, val_b, res_W, res_b = (
        _as_tensor(t) for t in (h, w1, w2, val_W, val_b, res_W, res_b))
    if w1.data.ndim != 2 or w2.data.shape != w1.data.shape:
        raise ShapeError(f"attention_layer w1 {w1.shape} and w2 {w2.shape} must be [H, in]")
    heads, d_in = w1.data.shape
    if h.data.ndim < 2 or h.data.shape[-1] != d_in:
        raise ShapeError(f"attention_layer h {h.shape} vs w1 {w1.shape}")
    if (val_W.data.ndim != 3 or val_W.data.shape[:2] != (heads, d_in)
            or val_b.data.shape != (heads, val_W.data.shape[2])):
        raise ShapeError(f"attention_layer value weights {val_W.shape}, {val_b.shape} "
                         f"for {heads} heads of {d_in} inputs")
    d_out = val_W.data.shape[2]
    if res_W.data.shape != (d_in, heads * d_out) or res_b.data.shape != (heads * d_out,):
        raise ShapeError(f"attention_layer residual {res_W.shape}, {res_b.shape} "
                         f"for {heads} heads of {d_in} -> {d_out}")
    lead = h.data.shape[:-1]
    edge = [] if edge is None else [_as_tensor(p) for p in edge]
    if edge:
        W_e, b_e, a_e = edge
        width = b_e.data.size
        if (W_e.data.shape != (2, width) or b_e.data.shape != (width,)
                or a_e.data.shape != (heads, width)):
            raise ShapeError(f"attention_layer edge weights {W_e.shape}, {b_e.shape}, "
                             f"{a_e.shape} for {heads} heads")
        centred = np.asarray(centred, dtype=np.float64)
        if centred.shape != lead + (2,):
            raise ShapeError(f"attention_layer positions {centred.shape} for h {h.shape}")
    inputs = [h, val_W, val_b, w1, w2, *edge, res_W, res_b]
    record = _recording(inputs)
    x2 = h.data.reshape(-1, d_in)

    # Every head's values from one product over the heads side by side.
    W2 = val_W.data.transpose(1, 0, 2).reshape(d_in, heads * d_out)
    u2 = x2 @ W2
    u2 += val_b.data.reshape(-1)
    u = u2.reshape(-1, heads, d_out).transpose(1, 0, 2).reshape((heads,) + lead + (d_out,))
    t = np.tanh(u)
    v = t * u
    if not record:
        del u2, u, t

    src = w1.data @ x2.T
    dst = w2.data @ x2.T
    if edge:
        ae = np.ascontiguousarray(a_e.data.T)   # [width, H]
        b2 = b_e.data.reshape(1, width)
        c2 = centred.reshape(-1, 2)
        qv = (c2 @ (W_e.data @ ae)).T
        src = src + (b2 @ ae).reshape(heads, 1)
        src = src + qv
        dst = dst - qv
    alpha, grads = _pair_softmax(src.reshape((heads,) + lead), dst.reshape((heads,) + lead),
                                 record)

    # Each head's weighted sum through leaky, the heads moved last.
    r = len(lead) - 1
    pre = alpha @ v
    merged = np.ascontiguousarray(_leaky(pre).transpose(tuple(range(1, r + 2)) + (0, r + 2)))
    if not record:
        del v, pre
    out = (x2 @ res_W.data).reshape(lead + (-1,))
    out += res_b.data
    out = Tensor(np.add(merged.reshape(out.shape), out, out=out))
    if not record:
        return out, alpha
    to_first = (r + 1,) + tuple(range(r + 1)) + (r + 2,)

    def bwd(g):
        # The C-ordered copy of g the add's backward made for both terms.
        g = np.ascontiguousarray(g)
        g2 = g.reshape(-1, heads * d_out)
        _accumulate(h, (g2 @ res_W.data.T).reshape(h.data.shape))
        _accumulate(res_W, x2.T @ g2)
        _accumulate(res_b, g2.sum(axis=0))
        gl = np.array(g.reshape(lead + (heads, d_out)).transpose(to_first), order="C")
        gl *= np.maximum(pre >= 0.0, _SLOPE)
        gs, gd = (a.reshape(heads, -1) for a in grads(gl @ np.swapaxes(v, -1, -2)))
        _accumulate(h, (gd.T @ w2.data).reshape(h.data.shape))
        _accumulate(w2, gd @ x2)
        _accumulate(h, (gs.T @ w1.data).reshape(h.data.shape))
        _accumulate(w1, gs @ x2)
        if edge:
            gb = np.ascontiguousarray(gs.T).sum(axis=0).reshape(1, heads)
            _accumulate(b_e, (gb @ ae.T).reshape(width))
            gae = b2.T @ gb
            gv = c2.T @ (gs - gd).T
            _accumulate(W_e, gv @ ae.T)
            gae += W_e.data.T @ gv
            _accumulate(a_e, gae.T)
        gg = np.swapaxes(alpha, -1, -2) @ gl
        gu = gg * t + (gg * u) * (1.0 - t * t)
        gu = gu.reshape(heads, -1, d_out).transpose(1, 0, 2).reshape(-1, heads * d_out)
        _accumulate(h, (gu @ W2.T).reshape(h.data.shape))
        _accumulate(val_W, (x2.T @ gu).reshape(d_in, heads, d_out).transpose(1, 0, 2))
        _accumulate(val_b, gu.sum(axis=0).reshape(heads, d_out))

    _record(out, inputs, bwd)
    return out, alpha


def _conv(x: Tensor, W: Tensor, b: Tensor, dilation: int, record: bool):
    """A causal convolution, checked, as one im2col matmul: the output rows
    [B * T, C_out] for x's data as [B, T, C_in] (a 2-d x [C_in, T] is a
    batch of one). Row (b, t) of the column block holds the k dilated taps
    of every input channel in W's (C_in, k) order, zero before step 0.
    With ``record``, also the rule (else None) that takes the rows'
    gradient, adds into W and b and returns x's [B, T, C_in] gradient."""
    if dilation < 1:
        raise ShapeError(f"dilation must be >= 1, got {dilation}")
    if W.data.ndim != 3:
        raise ShapeError(f"conv weight must be [C_out, C_in, k], got {W.shape}")
    if x.data.ndim not in (2, 3):
        raise ShapeError(f"conv input must be [C_in, T] or [B, T, C_in], got {x.shape}")
    c_out, c_in, k = W.data.shape
    xb = x.data if x.data.ndim == 3 else x.data.T[None]
    if xb.shape[-1] != c_in:
        raise ShapeError(f"conv channel mismatch: x {x.shape} vs W {W.shape}")
    if b.data.shape != (c_out,):
        raise ShapeError(f"conv bias {b.shape} vs W {W.shape}")
    n, t_len = xb.shape[:2]
    shifts = [(j, s) for j in range(k) if (s := (k - 1 - j) * dilation) < t_len]
    cols4 = np.zeros((n, t_len, c_in, k))
    for j, s in shifts:   # tap j reads step t - s
        cols4[:, s:, :, j] = xb[:, : t_len - s]
    cols, W2 = cols4.reshape(n * t_len, c_in * k), W.data.reshape(c_out, c_in * k)
    y = cols @ W2.T
    y += b.data
    if not record:
        return y, None

    def rule(g2):
        _accumulate(W, (g2.T @ cols).reshape(W.data.shape))
        _accumulate(b, g2.sum(axis=0))
        gcols = (g2 @ W2).reshape(n, t_len, c_in, k)
        gx = np.zeros(xb.shape)
        for j, s in shifts:
            gx[:, : t_len - s] += gcols[:, s:, :, j]
        return gx

    return y, rule


def conv1d_causal(x, W, b, dilation: int = 1) -> Tensor:
    """Causal 1-d convolution with left zero padding of (k-1)*dilation.

    ``x`` is channels-last [B, T, C_in] and the result is [B, T, C_out];
    ``W`` is [C_out, C_in, k]. A 2-d ``x`` is one channels-first sequence
    [C_in, T], read through its transpose as a batch of one; its result
    is [C_out, T]. Output keeps the input length, and step t depends only
    on input steps 0..t: tap k-1 reads the current step, lower taps read
    the past. Runs as ``_conv``'s im2col matmul, with its backward rule.
    """
    x, W, b = _as_tensor(x), _as_tensor(W), _as_tensor(b)
    y, rule = _conv(x, W, b, dilation, _recording((x, W, b)))
    batched = x.data.ndim == 3
    out = Tensor(y.reshape(x.data.shape[:2] + (-1,)) if batched else y.T.copy())

    def bwd(g):
        gx = rule(g.reshape(y.shape) if batched else g.T)
        _accumulate(x, gx if batched else gx[0].T)

    _record(out, [x, W, b], bwd)
    return out


def gated_conv(x, W, b, dilation: int) -> Tensor:
    """One gated causal convolution layer over channels-last x [B, T,
    C_in]: tanh(gate) * sigmoid(filter), [B, T, C], for the two halves of
    the 2 * C output channels of conv1d_causal(x, W, b, dilation).

    One op for the chain conv1d_causal, slice_axis, tanh, sigmoid and mul,
    equal to it bit for bit: the forward runs the chain's numpy
    expressions, and backward builds the convolution output's gradient as
    the chain's sweep did, then hands it to the rule conv1d_causal uses.
    """
    x, W, b = _as_tensor(x), _as_tensor(W), _as_tensor(b)
    if x.data.ndim != 3:
        raise ShapeError(f"gated_conv input must be [B, T, C_in], got {x.shape}")
    y, rule = _conv(x, W, b, dilation, _recording((x, W, b)))
    if y.shape[1] % 2:
        raise ShapeError(f"gated_conv needs an even number of output channels, got W {W.shape}")
    (n, t_len, _), c = x.data.shape, y.shape[1] // 2
    y = y.reshape(n, t_len, 2 * c)
    # Contiguous copies of the halves, as the chain's slices made.
    a = np.tanh(y[..., :c].copy())
    s = _sigmoid(y[..., c:].copy())
    del y
    out = Tensor(a * s)
    if rule is None:
        return out

    def bwd(g):
        gy = np.empty((n, t_len, 2 * c))
        gy[..., :c] = (g * s) * (1.0 - a * a)
        gy[..., c:] = ((g * a) * s) * (1.0 - s)
        _accumulate(x, rule(gy.reshape(n * t_len, 2 * c)))

    _record(out, [x, W, b], bwd)
    return out


def reduce_sum(x, axis=None) -> Tensor:
    x, axis = _reduction_input(x, axis)
    return _unary(x, x.data.sum(axis=axis),
                  lambda g, x=x, axis=axis: _spread(g, x, axis, 1.0))


def reduce_mean(x) -> Tensor:
    """Mean over every element, 0-d."""
    x, _ = _reduction_input(x, None)
    scale = 1.0 / x.data.size
    return _unary(x, x.data.mean(),
                  lambda g, x=x, scale=scale: _spread(g, x, None, scale))


def reduce_min(x, axis: int) -> Tensor:
    """Minimum along ``axis``; backward routes to the arg-min (lowest index
    on ties)."""
    if axis is None:
        raise ShapeError("reduce_min takes one axis, got axis=None")
    x, axis = _reduction_input(x, axis)

    def grad(g, x=x, axis=axis):
        gx = np.zeros_like(x.data)
        idx = np.argmin(x.data, axis=axis)
        np.put_along_axis(gx, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis)
        return gx

    return _unary(x, x.data.min(axis=axis), grad)


def best_of_m_ade(samples, gt) -> Tensor:
    """The best-of-M average displacement error, 0-d: the least, over the
    draws of ``samples`` [M, N, T, 2], of the mean Euclidean distance to
    the constant target ``gt`` [N, T, 2] over every node and step. Its
    gradient reaches only the winning draw, the lowest index on ties.

    One op for the chain sub, mul, reduce_sum, sqrt, reshape, reduce_mean
    and reduce_min, equal to it bit for bit where the chain's gradient is
    finite: the forward repeats the chain's arithmetic, and backward
    repeats it on the winner's row (a losing draw gets +0, the
    chain's +-0). Where the chain divides 0 by 0, at a step on which a draw
    meets the target, the gradient is 0, not NaN, as PyTorch's norm gives.
    """
    samples = _as_tensor(samples)
    x, gt = samples.data, np.asarray(gt, dtype=np.float64)
    if x.ndim != 4 or x.shape[1:] != gt.shape or gt.shape[-1] != 2 or not x.size:
        raise ShapeError(f"samples {samples.shape} vs ground truth {gt.shape}, expected [M, N, T, 2]")
    m = x.shape[0]
    diff = x - gt
    sq = diff * diff
    # The chain's sum over the two coordinates, as one add: the same single
    # rounding, without numpy's slow reduction over a length-2 axis.
    dist = np.sqrt(sq[..., 0] + sq[..., 1])
    per_draw = dist.reshape(m, -1).mean(axis=1)
    k = int(np.argmin(per_draw))

    def grad(g):
        gk = float(g) * (1.0 / (dist.size // m))
        gd = np.divide(gk * 0.5, dist[k], out=np.zeros(dist.shape[1:]), where=dist[k] > 0.0)
        step = gd[..., None] * diff[k]
        gx = np.zeros(x.shape)
        gx[k] = step + step
        return gx

    return _unary(samples, per_draw.min(), grad)


def _reduction_input(x, axis):
    """A reduction's operand as a tensor, and its axis (None: all axes)."""
    x = _as_tensor(x)
    if x.data.size == 0:
        raise ShapeError(f"reduction over empty tensor of shape {x.shape}")
    if axis is not None:
        axis = _norm_axis(axis, x.data.ndim)
    return x, axis


def _spread(g, x: Tensor, axis, scale: float) -> np.ndarray:
    """Gradient of a sum-like reduction: ``g * scale`` at every element."""
    if axis is None:
        return np.full_like(x.data, float(g) * scale)
    return np.expand_dims(g, axis) * scale * np.ones_like(x.data)


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
    heads together, or gate and filter together) and ``add`` its names to
    that block in order, each taking the block's next free values: the
    layer then computes on the block, while every named entry stays a
    C-contiguous view that sees each update. An op that wants another
    layout of a weight (a transpose, a subset of rows) cuts it from the
    tensor it is given. The buffers double in capacity while space is
    taken; every tensor already handed out (name or block) is re-pointed at
    the new buffers, so it stays valid.

    The view contract: write ``data`` and ``grad`` in place; never rebind
    either. The gradient buffer is then a parameter's only gradient, which
    ``zero_grads`` clears and ``Adam.step`` reads. An ``Adam`` sizes its
    moments from the store when it is built, so the store must not take
    more space after that.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        # (tensor, its start in the buffers), for every tensor handed out.
        self._handed: list[tuple] = []
        # id(block) -> [its next free value, its stop].
        self._blocks: dict[int, list] = {}
        self._size = 0
        self._data = np.zeros(0)
        self._grad = np.zeros(0)

    def add(self, name: str, values: np.ndarray, block: Tensor = None) -> Tensor:
        """Register ``name`` with initial ``values``, which take the next
        free values of ``block`` (a tensor from ``reserve``) and must fit in
        the rest of it. Without ``block`` they fill a block of their own."""
        if name in self._params:
            raise ContractError(f"duplicate parameter name {name!r}")
        values = np.asarray(values, dtype=np.float64)
        if block is None:
            block = self.reserve(values.shape)
        cursor = self._blocks.get(id(block))
        if cursor is None:
            raise ContractError(f"{name!r}: block was not reserved in this store")
        start, stop = cursor
        if values.size > stop - start:
            raise ContractError(
                f"{name!r}: {values.size} values overflow the {stop - start} left in its block")
        cursor[0] = start + values.size
        t = self._hand_out(start, values.shape)
        t.data[...] = values
        self._params[name] = t
        return t

    def reserve(self, shape) -> Tensor:
        """Take one zeroed block of ``shape`` for names to be added into."""
        shape = tuple(shape)
        start, stop = self._size, self._size + math.prod(shape)
        if stop > self._data.size:
            self._grow(max(stop, 2 * self._data.size))
        self._size = stop
        t = self._hand_out(start, shape)
        self._blocks[id(t)] = [start, stop]
        return t

    def _hand_out(self, start: int, shape: tuple) -> Tensor:
        t = Tensor(_view(self._data, start, shape))
        t.requires_grad = True
        t.grad = _view(self._grad, start, shape)
        self._handed.append((t, start))
        return t

    def _grow(self, capacity: int):
        data, grad = np.zeros(capacity), np.zeros(capacity)
        data[:self._size] = self._data[:self._size]
        grad[:self._size] = self._grad[:self._size]
        self._data, self._grad = data, grad
        for t, start in self._handed:
            t.data, t.grad = _view(data, start, t.shape), _view(grad, start, t.shape)

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __len__(self) -> int:
        return len(self._params)

    def items(self):
        return self._params.items()

    def flat(self) -> tuple[np.ndarray, np.ndarray]:
        """The data and gradient buffers as two vectors, in buffer order."""
        return self._data[:self._size], self._grad[:self._size]

    def zero_grads(self):
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


def _view(buf: np.ndarray, start: int, shape: tuple) -> np.ndarray:
    """The view of ``shape`` that starts ``start`` values into ``buf``."""
    return buf[start:start + math.prod(shape)].reshape(shape)


def finite_difference_check(f, params: ParameterStore) -> float:
    """Compare tape gradients of a scalar function against central
    differences of step 1e-5.

    ``f`` maps the store to a scalar Tensor and must be deterministic (any
    randomness drawn ahead of time and frozen). Returns the worst relative
    error |analytic - numeric| / max(1e-12, |analytic| + |numeric|) over
    every parameter element. Entries whose gradient is near zero set that
    worst value, since the differencing error there is not small against
    the gradient; so a bound on the result depends on the draws as much as
    on the rule checked.
    """
    h = 1e-5
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
