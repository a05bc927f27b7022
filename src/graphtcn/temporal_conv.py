"""Gated causal temporal convolutions over each pedestrian's sequence.

Each layer is a tanh gate times a sigmoid filter, both causal
convolutions over time (WaveNet's gated activation). The two run fused:
gate and filter weights are the two halves of one parameter block that
TemporalConvNet reserves, so a layer is one gated_conv op: one im2col
matmul, then the gate over the halves of its output channels. Its
backward runs the convolution rule conv1d_causal shares. Left zero
padding keeps output length equal to input length and makes step t
blind to steps after t.
Activations stay channels-last [..., N, T, C] from the spatial encoder
through every layer, so the stack moves no axes. Pedestrians never mix
here; the convolution folds them, and the windows of a bucket before
them, into its batch axis.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .init import xavier_uniform


def receptive_field(kernel: int, dilations) -> int:
    """Number of trailing input steps that can reach one output step."""
    dilations = tuple(dilations)
    if kernel < 1 or len(dilations) < 1 or any(d < 1 for d in dilations):
        raise ShapeError(f"bad kernel {kernel} or dilations {dilations}")
    return 1 + (kernel - 1) * sum(dilations)


class TemporalConvNet:
    """Stack of gated causal layers over [..., N, T, C] activations.

    Layer i is tanh(conv_g(h)) * sigmoid(conv_f(h)), both causal. Its gate
    and filter weights keep separate checkpoint names
    (``{prefix}.l{i}.gate.*`` and ``{prefix}.l{i}.filt.*``) as the two
    halves of one [2 * C, C_in, k] weight block and one [2 * C] bias
    block, so the layer is one gated_conv op on its (W, b, dilation).
    """

    def __init__(self, store, prefix: str, in_dim: int, channels: int,
                 layers: int, kernel: int, dilations, rng: np.random.Generator):
        dilations = tuple(dilations)
        if len(dilations) != layers:
            raise ShapeError(f"{len(dilations)} dilations for {layers} layers")
        self.layers = []
        for i, dilation in enumerate(dilations):
            c_in = in_dim if i == 0 else channels
            W, b = store.reserve((2 * channels, c_in, kernel)), store.reserve((2 * channels,))
            fan_in, fan_out = c_in * kernel, channels * kernel
            for name in ("gate", "filt"):
                init = xavier_uniform(rng, fan_in, fan_out, (channels, c_in, kernel))
                store.add(f"{prefix}.l{i}.{name}.W", init, block=W)
                store.add(f"{prefix}.l{i}.{name}.b", np.zeros(channels), block=b)
            self.layers.append((W, b, dilation))

    def forward(self, h: T.Tensor) -> T.Tensor:
        """h is [..., N, T, C_in] -> [..., N, T, channels]; gated_conv checks the rank."""
        for W, b, dilation in self.layers:
            h = T.gated_conv(h, W, b, dilation)
        return h
