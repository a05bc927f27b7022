"""Gated causal temporal convolutions over each pedestrian's sequence.

Each layer is a tanh gate times a sigmoid filter, both causal
convolutions over time (WaveNet's gated activation). The two run fused:
gate and filter weights are the two halves of one parameter block, so a
layer is one gated_conv op: one im2col matmul, then the gate over the
halves of its output channels. Left zero padding keeps output length
equal to input length and makes step t blind to steps after t.
Activations stay channels-last [N, T, C] from the spatial encoder through
every layer, so the stack moves no axes. Pedestrians never mix here; the
batch axis of the convolution carries them.
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


class GatedConvLayer:
    """tanh(conv_g(h)) * sigmoid(conv_f(h)), both causal, channels-last.

    The gate and filter weights keep separate checkpoint names
    (``{prefix}.gate.*`` and ``{prefix}.filt.*``) as the two halves of one
    [2 * C_out, C_in, k] weight block and one [2 * C_out] bias block, so
    the layer is one gated_conv op.
    """

    def __init__(self, store, prefix: str, c_in: int, c_out: int, kernel: int,
                 dilation: int, rng: np.random.Generator):
        self.dilation = dilation
        fan_in, fan_out = c_in * kernel, c_out * kernel
        self.W = store.reserve((2 * c_out, c_in, kernel))
        self.b = store.reserve((2 * c_out,))
        for name in ("gate", "filt"):
            W = xavier_uniform(rng, fan_in, fan_out, (c_out, c_in, kernel))
            store.add(f"{prefix}.{name}.W", W, block=self.W)
            store.add(f"{prefix}.{name}.b", np.zeros(c_out), block=self.b)

    def forward(self, h: T.Tensor) -> T.Tensor:
        """h is [N, T, C_in] -> [N, T, C_out]."""
        return T.gated_conv(h, self.W, self.b, self.dilation)


class TemporalConvNet:
    """Stack of gated causal layers over [N, T, C] activations."""

    def __init__(self, store, prefix: str, in_dim: int, channels: int,
                 layers: int, kernel: int, dilations, rng: np.random.Generator):
        dilations = tuple(dilations)
        if len(dilations) != layers:
            raise ShapeError(f"{len(dilations)} dilations for {layers} layers")
        self.layers = []
        for i in range(layers):
            c_in = in_dim if i == 0 else channels
            self.layers.append(
                GatedConvLayer(store, f"{prefix}.l{i}", c_in, channels, kernel, dilations[i], rng)
            )

    def forward(self, h: T.Tensor) -> T.Tensor:
        """h is [N, T, C_in] -> [N, T, channels]; gated_conv checks the rank."""
        for layer in self.layers:
            h = layer.forward(h)
        return h
