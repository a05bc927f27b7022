"""Parameter initialization helpers.

Weights draw uniformly from ±sqrt(6/(fan_in+fan_out)); biases start at
zero. The zero bias matters twice: freshly initialized residual branches
add nothing until trained, and the posterior log-variance head starts at
sigma = 1 so the latent begins at the prior.
"""

from __future__ import annotations

import numpy as np


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape=None) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    if shape is None:
        shape = (fan_in, fan_out)
    return rng.uniform(-limit, limit, size=shape)


def add_affine(store, prefix: str, fan_in: int, fan_out: int, rng: np.random.Generator):
    """Register W and b under ``prefix``, reserving W before drawing it; returns the tensors."""
    block = store.reserve((fan_in, fan_out))
    W = store.add(f"{prefix}.W", xavier_uniform(rng, fan_in, fan_out), block=block)
    b = store.add(f"{prefix}.b", np.zeros(fan_out))
    return W, b
