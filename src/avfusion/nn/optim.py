"""ADAM optimizer (beta1=0.9, beta2=0.999, eps=1e-8) with bias correction."""

from __future__ import annotations

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


def adam_step(param: np.ndarray, grad: np.ndarray, m: np.ndarray,
              v: np.ndarray, t: int,
              lr: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One bias-corrected update; returns (new_param, new_m, new_v).

    ``t`` is the 1-based step count after this update.
    """
    m = BETA1 * m + (1.0 - BETA1) * grad
    v = BETA2 * v + (1.0 - BETA2) * grad ** 2
    m_hat = m / (1.0 - BETA1 ** t)
    v_hat = v / (1.0 - BETA2 ** t)
    return param - lr * m_hat / (np.sqrt(v_hat) + EPS), m, v


class Adam:
    """Keeps per-parameter moments for a Network; lr is mutable mid-run."""

    def __init__(self, net, lr: float):
        self.net = net
        self.lr = lr
        self.t = 0
        self.m = {(i, n): np.zeros_like(p) for i, n, p in net.parameters()}
        self.v = {(i, n): np.zeros_like(p) for i, n, p in net.parameters()}

    def step(self):
        """Apply the gradients currently stored on each layer."""
        self.t += 1
        for idx, name, param in self.net.parameters():
            grad = self.net.layers[idx].grads.get(name)
            if grad is None:
                continue
            key = (idx, name)
            new_p, self.m[key], self.v[key] = adam_step(
                param, grad, self.m[key], self.v[key], self.t, self.lr)
            self.net.layers[idx].params[name] = new_p
