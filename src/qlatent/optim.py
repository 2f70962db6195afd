"""Adam optimizer for the Tensor parameters."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


class Adam:
    """Adam with bias correction; rejects non-finite gradients."""

    def __init__(self, params: list[Tensor], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8):
        params = list(params)
        if not params:
            raise ValueError("optimizer needs at least one parameter")
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        if not (0 <= betas[0] < 1 and 0 <= betas[1] < 1):
            raise ValueError(f"betas must lie in [0, 1), got {betas}")
        self.params = params
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.t = 0
        # the moments are flat vectors; parameter i ends at _ends[i]
        self._ends = np.cumsum([p.size for p in params])
        self._m = np.zeros(int(self._ends[-1]))
        self._v = np.zeros(int(self._ends[-1]))

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        """Apply one update; raises on any non-finite gradient.

        The check runs before any parameter is touched, so a rejected
        step leaves the model exactly as it was.
        """
        g = np.concatenate([np.zeros(p.size) if p.grad is None
                            else p.grad.reshape(-1) for p in self.params])
        bad = ~np.isfinite(g)
        if bad.any():
            first = int(np.searchsorted(self._ends, np.argmax(bad), "right"))
            raise ValueError(
                f"non-finite gradient in parameter {first}; step rejected")
        self.t += 1
        b1, b2 = self.betas
        m, v = self._m, self._v
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        m_hat = m / (1 - b1 ** self.t)
        v_hat = v / (1 - b2 ** self.t)
        update = self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        for p, hi in zip(self.params, self._ends):
            p.data -= update[hi - p.size:hi].reshape(p.shape)
