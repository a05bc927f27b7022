"""Adam with standard bias correction over a ParameterStore.

The store keeps every parameter's values and gradient as views into two
flat buffers (see ParameterStore); the moments are two flat vectors with
the same layout, so a step is one in-place pass over every parameter
value at once. It reads gradients only from the store's gradient buffer,
so a caller writes a gradient into its view and never rebinds it. The
store must not take more space (a name or a block) once an Adam holds it.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .tensor import ParameterStore

# Adam's published defaults (Kingma and Ba, arXiv 1412.6980).
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Keeps first/second moments as flat vectors; updates in place.

    The moments and two scratch vectors are sized from ``params`` here, so
    the store must not take more space afterwards: ``step`` raises
    ContractError if a name or a reserved block has taken some. Each step
    writes every temporary into the scratch vectors: fresh temporaries of
    the store's size would map new pages on every step.

    The very first step with gradient g moves each weight by
    -lr * g / (|g| + EPS), since the bias-corrected moments are exactly
    g and g*g there.
    """

    def __init__(self, params: ParameterStore, lr: float):
        if not 0 < lr < np.inf:
            raise ContractError(f"lr must be finite and positive, got {lr}")
        self.params = params
        self.lr = lr
        self.t = 0
        n = params.n_values()
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self._scratch = (np.empty(n), np.empty(n))

    def step(self):
        params = self.params
        if params.n_values() != self.m.size:
            raise ContractError(
                f"store holds {params.n_values()} values, Adam was built for {self.m.size}"
            )
        self.t += 1
        b1, b2 = BETA1, BETA2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        data, g = params.flat()
        m, v = self.m, self.v
        s, u = self._scratch
        # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
        m *= b1
        np.multiply(g, 1.0 - b1, out=s)
        m += s
        v *= b2
        np.multiply(g, 1.0 - b2, out=s)
        s *= g
        v += s
        # data -= lr (m / bc1) / (sqrt(v / bc2) + eps)
        np.divide(m, bc1, out=u)
        u *= self.lr
        np.divide(v, bc2, out=s)
        np.sqrt(s, out=s)
        s += EPS
        u /= s
        data -= u
