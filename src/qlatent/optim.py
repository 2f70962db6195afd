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
        self._m = [np.zeros_like(p.data) for p in params]
        self._v = [np.zeros_like(p.data) for p in params]

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        """Apply one update; raises on any non-finite gradient.

        The check runs before any parameter is touched, so a rejected
        step leaves the model exactly as it was.
        """
        grads = []
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            if not np.all(np.isfinite(g)):
                raise ValueError(
                    f"non-finite gradient in parameter {i}; step rejected")
            grads.append(g)
        self.t += 1
        b1, b2 = self.betas
        for p, g, m, v in zip(self.params, grads, self._m, self._v):
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            m_hat = m / (1 - b1 ** self.t)
            v_hat = v / (1 - b2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
