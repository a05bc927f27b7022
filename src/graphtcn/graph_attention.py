"""Spatial encoder: attention over pedestrians with displacement-derived
edge features, gated value transform, multi-head aggregation, and an
affine graph residual, run for every observed step in one batched pass.

The scene graph is fully connected including the self-loop, so a lone
pedestrian attends to itself with weight 1. Edge features embed the
displacement p_i - p_j, never absolute positions, which is what makes
the spatial encoding translation invariant.
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
    followed by a masked softmax over j. Values pass through a gated
    transform u * tanh(u) before aggregation, and each head's weighted
    sum gets a final leaky_relu. Heads are concatenated and an affine
    projection of the input is added as the graph residual. All heads run
    at once on their parameters laid side by side.
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
        per_head = []
        for k in range(heads):
            hp = {}
            hp["w1"] = store.add(f"{prefix}.h{k}.w1", xavier_uniform(rng, in_dim, 1))
            hp["w2"] = store.add(f"{prefix}.h{k}.w2", xavier_uniform(rng, in_dim, 1))
            if use_edges:
                hp["ae"] = store.add(f"{prefix}.h{k}.ae", xavier_uniform(rng, head_out, 1))
            hp["Wh"], hp["bh"] = add_affine(store, f"{prefix}.h{k}.val", in_dim, head_out, rng)
            if separate_gate:
                hp["Wg"], hp["bg"] = add_affine(store, f"{prefix}.h{k}.gate", in_dim, head_out, rng)
            per_head.append(hp)
        # Every per-head parameter as a list over heads, ready to concatenate.
        self.head_params = {key: [hp[key] for hp in per_head] for key in per_head[0]}
        self.res_W, self.res_b = add_affine(store, f"{prefix}.res", in_dim, self.out_dim, rng)

    def edge_features(self, positions: np.ndarray) -> T.Tensor:
        """Embed pairwise displacements: edge[..., i, j, :] = f(p_i - p_j)."""
        return T.affine(T.Tensor(_displacements(positions)), self.edge_W, self.edge_b)

    def _heads(self, key: str) -> T.Tensor:
        """One per-head parameter, all heads side by side on the last axis."""
        return T.concat(self.head_params[key], axis=-1)

    def forward(self, h: T.Tensor, positions: np.ndarray):
        """h [..., N, in_dim], positions [..., N, 2] -> ([..., N, heads*head_out]
        output, [heads, ..., N, N] attention). Leading axes are independent
        graphs (observed steps) and share the weights."""
        if h.data.ndim < 2 or h.data.shape[-1] != self.in_dim:
            raise ShapeError(f"node features {h.shape}, expected [..., N, {self.in_dim}]")
        lead, n = h.data.shape[:-2], h.data.shape[-2]
        if positions.shape != lead + (n, 2):
            raise ShapeError(f"positions {positions.shape} for node features {h.shape}")
        heads, width, r = self.heads, self.head_out, len(lead)

        u = T.affine(h, self._heads("Wh"), self._heads("bh"))
        gate_pre = T.affine(h, self._heads("Wg"), self._heads("bg")) if self.separate_gate else None
        g = T.reshape(gated_transform(u, gate_pre), lead + (n, heads, width))
        g = T.transpose(g, (r + 1,) + tuple(range(r + 1)) + (r + 2,))   # [heads, ..., N, width]
        # logits[..., i, j, k] = w1_k . h_i + w2_k . h_j (+ a_e,k . edge_ij)
        si = T.reshape(T.affine(h, self._heads("w1")), lead + (n, 1, heads))
        sj = T.reshape(T.affine(h, self._heads("w2")), lead + (1, n, heads))
        logits = T.add(T.repeat_axis(si, r + 1, n), T.repeat_axis(sj, r, n))
        if self.use_edges:
            # a_e . (W d + b) = d . (W a_e) + b . a_e, so the per-pair edge
            # embedding itself is never materialized here.
            ae = self._heads("ae")
            edge_score = T.affine(T.Tensor(_displacements(positions)),
                                  T.affine(self.edge_W, ae), T.affine(self.edge_b, ae))
            logits = T.add(logits, edge_score)
        logits = T.transpose(logits, (r + 2,) + tuple(range(r + 2)))   # [heads, ..., N, N]
        alpha = T.masked_softmax(T.leaky_relu(logits, self.slope),
                                 np.ones(logits.shape, dtype=bool))

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
