"""Spatial encoder: the input embedding, then two attention layers or
none. Each layer attends over pedestrians with displacement-derived edge
features, a gated value transform, multi-head aggregation, and an affine
graph residual, run for every observed step in one batched pass.

The scene graph is fully connected including the self-loop, so a lone
pedestrian attends to itself with weight 1. Edge features embed the
displacement p_i - p_j. Because the embedding is affine and scored by a
dot product, the layer never forms it per pair: each pedestrian's score
takes its position relative to pedestrian 0 of the same step, and the
logit of a pair is the sum of two per-node scores. That per-step
centring makes the edge term shift invariant, and with it a layer's
output for given node features: on a grid of dyadic positions with an
integer shift the centred positions, and so the layer's output and
attention, are reproduced bit for bit. The encoder is not invariant, as
the node features carry absolute (x, y).

Each per-head parameter lives in one head-major block for all heads, so
the heads run at once. A layer is one tensor op, attention_layer, on the
blocks: the gated values, both per-node scores of every head and their
softmax, every head's weighted sum with the heads merged, and the
residual. On every pass it copies the [heads, in, out] value block into
[in, heads * out] and a_e into [width, heads].
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .init import add_affine, xavier_uniform


class GraphAttentionLayer:
    """One multi-head attention layer over the pedestrian graph.

    Per head, the scalar attention logit between pedestrians i and j is
        leaky_relu(w1 . h_i + w2 . h_j + a_e . edge_ij)
    followed by a softmax over j, computed from per-node scores. Values
    pass through the gate u * tanh(u) before aggregation, and each head's
    weighted sum gets a final leaky_relu; the heads are concatenated, and
    an affine projection of the input is added as the graph residual. The
    whole layer is one attention_layer op.

    All heads run at once on head-major parameter blocks: [heads, in, out]
    for the value weights, [heads, out] for their biases and a_e,
    [heads, in] for w1 and w2. Each head's checkpoint entry
    (``{prefix}.h{k}.*``) is the C-contiguous slice k of its block.
    """

    def __init__(self, store, prefix: str, in_dim: int, heads: int, head_out: int,
                 rng: np.random.Generator, use_edges: bool = True):
        self.prefix = prefix
        self.heads = heads
        self.use_edges = use_edges
        self.out_dim = heads * head_out

        if use_edges:
            self.edge_W, self.edge_b = add_affine(store, f"{prefix}.edge", 2, head_out, rng)
        shapes = {"w1": (in_dim,), "w2": (in_dim,)}
        if use_edges:
            shapes["ae"] = (head_out,)
        shapes.update({"val.W": (in_dim, head_out), "val.b": (head_out,)})
        self.blocks = {key: store.reserve((heads,) + shape) for key, shape in shapes.items()}
        # Names are added head by head, which keeps the init draws and the
        # checkpoint in their per-head order; head k's entry is slice k.
        for k in range(heads):
            def put(key, values, k=k):
                store.add(f"{prefix}.h{k}.{key}", values, block=self.blocks[key])

            put("w1", xavier_uniform(rng, in_dim, 1))
            put("w2", xavier_uniform(rng, in_dim, 1))
            if use_edges:
                put("ae", xavier_uniform(rng, head_out, 1))
            put("val.W", xavier_uniform(rng, in_dim, head_out))
            put("val.b", np.zeros(head_out))
        self.res_W, self.res_b = add_affine(store, f"{prefix}.res", in_dim, self.out_dim, rng)

    def edge_features(self, positions: np.ndarray) -> T.Tensor:
        """Embed pairwise displacements: edge[..., i, j, :] = f(p_i - p_j)."""
        if positions.ndim < 2 or positions.shape[-1] != 2:
            raise ShapeError(f"positions must be [..., N, 2], got {positions.shape}")
        disp = positions[..., :, None, :] - positions[..., None, :, :]
        return T.affine(T.Tensor(disp), self.edge_W, self.edge_b)

    def forward(self, h: T.Tensor, positions: np.ndarray):
        """h [..., N, in_dim], positions [..., N, 2] -> ([..., N, heads*head_out]
        output, [heads, ..., N, N] attention). Leading axes are independent
        graphs (windows, then observed steps) and share the weights. Checks only that the
        positions match h's nodes; attention_layer checks h's width."""
        if h.data.ndim < 2 or positions.shape != h.data.shape[:-1] + (2,):
            raise ShapeError(f"positions {positions.shape} for node features {h.shape}")
        blocks = self.blocks
        centred = edge = None
        if self.use_edges:
            # Positions centred on each step's pedestrian 0 keep the edge
            # scores unchanged under a shift of the scene.
            centred = positions - positions[..., :1, :]
            edge = (self.edge_W, self.edge_b, blocks["ae"])
        return T.attention_layer(h, centred, blocks["w1"], blocks["w2"], blocks["val.W"],
                                 blocks["val.b"], self.res_W, self.res_b, edge)


class SpatialEncoder:
    """Input embedding, then two attention layers or none.

    The variant decides: ``no_efgat`` keeps only the embedding, so its
    width is embed_dim and there is no attention to return;
    ``vanilla_gat`` builds both layers without edge features. With
    attention, steps are independent: layer weights are shared across
    time but no state crosses step boundaries, so all steps run as one
    batch with time as a leading axis. Windows with equal N run as one
    batch too, on leading axes before the pedestrians (none for a single
    window). Returns the encodings as [..., N, T_obs, out_dim] and, per
    layer, the attention tensor [heads, ..., T_obs, N, N] for inspection
    dumps (None without layers).
    """

    def __init__(self, store, cfg, rng: np.random.Generator):
        self.embed_W, self.embed_b = add_affine(store, "embed", 4, cfg.embed_dim, rng)
        self.gal1 = self.gal2 = None
        self.out_dim = cfg.embed_dim
        if cfg.variant != "no_efgat":
            use_edges = cfg.variant != "vanilla_gat"
            self.gal1 = GraphAttentionLayer(store, "gal1", cfg.embed_dim, cfg.gal1_heads,
                                            cfg.gal1_out, rng, use_edges=use_edges)
            self.gal2 = GraphAttentionLayer(store, "gal2", self.gal1.out_dim, cfg.gal2_heads,
                                            cfg.gal2_out, rng, use_edges=use_edges)
            self.out_dim = self.gal2.out_dim

    def forward(self, features: T.Tensor, positions: np.ndarray):
        """features [..., N, T, 4], positions [..., N, T, 2] -> [..., N, T, out_dim]."""
        if self.gal1 is None:
            # Pedestrian-major as given, not time-major then transposed:
            # the embedding's weight gradient sums its rows in this order,
            # which the golden checkpoints pin bit for bit.
            return T.affine(features, self.embed_W, self.embed_b), None
        # The features are constants, so they turn time-major in numpy.
        steps = T.Tensor(np.ascontiguousarray(features.data.swapaxes(-3, -2)))
        h = T.affine(steps, self.embed_W, self.embed_b)
        pos = positions.swapaxes(-3, -2)
        h, attn1 = self.gal1.forward(h, pos)
        h, attn2 = self.gal2.forward(h, pos)
        r = h.data.ndim
        return T.transpose(h, tuple(range(r - 3)) + (r - 2, r - 3, r - 1)), [attn1, attn2]
