"""Spatial encoder: attention over pedestrians with displacement-derived
edge features, gated value transform, multi-head aggregation, and an
affine graph residual, run for every observed step in one batched pass.

The scene graph is fully connected including the self-loop, so a lone
pedestrian attends to itself with weight 1. Edge features embed the
displacement p_i - p_j. Because the embedding is affine and scored by a
dot product, the layer never forms it per pair: each pedestrian's score
takes its position relative to pedestrian 0 of the same step, and the
logit of a pair is the sum of two per-node scores. That per-step
centring, not the pairwise difference, is what makes the spatial
encoding translation invariant; on a grid of dyadic positions with an
integer shift the centred positions, and so the output, are reproduced
bit for bit.

Each per-head parameter lives in one head-major block for all heads, so
the heads run at once without rebuilding their weights on every pass.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .init import add_affine, xavier_uniform


def gated_transform(value_pre: T.Tensor, gate_pre: T.Tensor = None) -> T.Tensor:
    """Self-gated value: u * tanh(u), or u * tanh(v) with a separate gate.

    The gate saturates toward 1 for large pre-activations, so the
    transform passes large values through nearly unchanged while
    squashing small ones quadratically.
    """
    if gate_pre is None:
        gate_pre = value_pre
    return T.mul(T.tanh(gate_pre), value_pre)


class GraphAttentionLayer:
    """One multi-head attention layer over the pedestrian graph.

    Per head, the scalar attention logit between pedestrians i and j is
        leaky_relu(w1 . h_i + w2 . h_j + a_e . edge_ij)
    followed by a softmax over j, computed from per-node scores. Values
    pass through a gated transform u * tanh(u) before aggregation, and
    each head's weighted sum gets a final leaky_relu. Heads are
    concatenated and an affine projection of the input is added as the
    graph residual.

    All heads run at once on head-major parameter blocks: [heads, in, out]
    for the value (and gate) weights, [heads, out] for their biases and
    a_e, [heads, in] for w1 and w2. Each head's checkpoint entry
    (``{prefix}.h{k}.*``) is the C-contiguous slice k of its block.
    """

    def __init__(self, store, prefix: str, in_dim: int, heads: int, head_out: int,
                 rng: np.random.Generator, slope: float = 0.2,
                 use_edges: bool = True, separate_gate: bool = False):
        self.prefix = prefix
        self.in_dim = in_dim
        self.heads = heads
        self.head_out = head_out
        self.slope = slope
        self.use_edges = use_edges
        self.separate_gate = separate_gate
        self.out_dim = heads * head_out

        if use_edges:
            self.edge_W, self.edge_b = add_affine(store, f"{prefix}.edge", 2, head_out, rng)
        shapes = {"w1": (in_dim,), "w2": (in_dim,)}
        if use_edges:
            shapes["ae"] = (head_out,)
        shapes.update({"val.W": (in_dim, head_out), "val.b": (head_out,)})
        if separate_gate:
            shapes.update({"gate.W": (in_dim, head_out), "gate.b": (head_out,)})
        self.blocks = {key: store.reserve((heads,) + shape) for key, shape in shapes.items()}
        # Names are added head by head, which keeps the init draws and the
        # checkpoint in their per-head order; head k's entry is slice k.
        for k in range(heads):
            def put(key, values, k=k):
                store.add(f"{prefix}.h{k}.{key}", values, block=self.blocks[key],
                          offset=k * values.size)

            put("w1", xavier_uniform(rng, in_dim, 1))
            put("w2", xavier_uniform(rng, in_dim, 1))
            if use_edges:
                put("ae", xavier_uniform(rng, head_out, 1))
            put("val.W", xavier_uniform(rng, in_dim, head_out))
            put("val.b", np.zeros(head_out))
            if separate_gate:
                put("gate.W", xavier_uniform(rng, in_dim, head_out))
                put("gate.b", np.zeros(head_out))
        # w1 and w2 enter affine as [in, heads].
        self.w1 = store.view(self.blocks["w1"], np.transpose)
        self.w2 = store.view(self.blocks["w2"], np.transpose)
        self.res_W, self.res_b = add_affine(store, f"{prefix}.res", in_dim, self.out_dim, rng)

    def edge_features(self, positions: np.ndarray) -> T.Tensor:
        """Embed pairwise displacements: edge[..., i, j, :] = f(p_i - p_j)."""
        return T.affine(T.Tensor(_displacements(positions)), self.edge_W, self.edge_b)

    def forward(self, h: T.Tensor, positions: np.ndarray):
        """h [..., N, in_dim], positions [..., N, 2] -> ([..., N, heads*head_out]
        output, [heads, ..., N, N] attention). Leading axes are independent
        graphs (observed steps) and share the weights."""
        if h.data.ndim < 2 or h.data.shape[-1] != self.in_dim:
            raise ShapeError(f"node features {h.shape}, expected [..., N, {self.in_dim}]")
        lead, n = h.data.shape[:-2], h.data.shape[-2]
        if positions.shape != lead + (n, 2):
            raise ShapeError(f"positions {positions.shape} for node features {h.shape}")
        blocks, r = self.blocks, len(lead)
        to_heads = (r + 1,) + tuple(range(r + 1))   # [..., N, heads] -> [heads, ..., N]

        u = T.head_affine(h, blocks["val.W"], blocks["val.b"])   # [heads, ..., N, width]
        gate_pre = (T.head_affine(h, blocks["gate.W"], blocks["gate.b"])
                    if self.separate_gate else None)
        g = gated_transform(u, gate_pre)
        # Logit (k, i, j) is src[i, k] + dst[j, k]. The edge term is linear
        # in the displacement: a_e . (W (p_i - p_j) + b) = q_i . v - q_j . v
        # + b . a_e with v = W a_e, so it folds into the per-node scores.
        # q centres each step on its pedestrian 0, which keeps the scores
        # unchanged under a shift of the scene.
        if self.use_edges:
            ae = T.transpose(blocks["ae"], (1, 0))   # [width, heads]
            qv = T.affine(T.Tensor(positions - positions[..., :1, :]), T.affine(self.edge_W, ae))
            src = T.add(T.affine(h, self.w1, T.affine(self.edge_b, ae)), qv)
            dst = T.sub(T.affine(h, self.w2), qv)
        else:
            src, dst = T.affine(h, self.w1), T.affine(h, self.w2)
        alpha = T.pair_softmax(T.transpose(src, to_heads), T.transpose(dst, to_heads), self.slope)

        per_head = T.leaky_relu(T.matmul(alpha, g), self.slope)
        merged = T.reshape(T.transpose(per_head, tuple(range(1, r + 2)) + (0, r + 2)),
                           lead + (n, self.out_dim))
        out = T.add(merged, T.affine(h, self.res_W, self.res_b))
        return out, alpha.data


class SpatialEncoder:
    """Input embedding plus two attention layers over every observed step.

    Steps are independent: layer weights are shared across time but no
    state crosses step boundaries, so all steps run as one batch with time
    as the leading axis. Returns the encodings as [N, T_obs, width] and,
    per layer, the attention tensor [heads, T_obs, N, N] for inspection
    dumps.
    """

    def __init__(self, store, cfg, rng: np.random.Generator):
        use_edges = cfg.variant != "vanilla_gat"
        self.embed_W, self.embed_b = add_affine(store, "embed", 4, cfg.embed_dim, rng)
        self.gal1 = GraphAttentionLayer(
            store, "gal1", cfg.embed_dim, cfg.gal1_heads, cfg.gal1_out, rng,
            slope=cfg.leaky_slope, use_edges=use_edges, separate_gate=cfg.separate_gate,
        )
        self.gal2 = GraphAttentionLayer(
            store, "gal2", self.gal1.out_dim, cfg.gal2_heads, cfg.gal2_out, rng,
            slope=cfg.leaky_slope, use_edges=use_edges, separate_gate=cfg.separate_gate,
        )
        self.out_dim = self.gal2.out_dim

    def forward(self, features: T.Tensor, positions: np.ndarray):
        """features [N, T, 4], positions [N, T, 2] -> [N, T, out_dim]."""
        h = T.affine(T.transpose(features, (1, 0, 2)), self.embed_W, self.embed_b)
        pos = positions.transpose(1, 0, 2)
        h, attn1 = self.gal1.forward(h, pos)
        h, attn2 = self.gal2.forward(h, pos)
        return T.transpose(h, (1, 0, 2)), [attn1, attn2]


def _displacements(positions: np.ndarray) -> np.ndarray:
    """Pairwise p_i - p_j: [..., N, 2] -> [..., N, N, 2]."""
    if positions.ndim < 2 or positions.shape[-1] != 2:
        raise ShapeError(f"positions must be [..., N, 2], got {positions.shape}")
    return positions[..., :, None, :] - positions[..., None, :, :]
