"""Adam optimizer and the cosine-annealing learning-rate schedule."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .tensor import Param

# Adam's moment decay rates and denominator guard
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


def cosine_lr(t: int, total: int, lr0: float) -> float:
    """Cosine annealing from lr0 at t=0 down to 0 at t=total."""
    if not 0 <= t <= total:
        raise ValueError(f"cosine_lr: step {t} outside [0, {total}]")
    return lr0 * (1.0 + math.cos(math.pi * t / total)) / 2.0


class Adam:
    """Standard Adam with bias correction over a fixed set of params; the
    learning rate is given to each step."""

    def __init__(self, params: Sequence[Param]):
        self.params = list(params)
        self.t = 0
        self._m = [np.zeros(p.shape, dtype=np.float64) for p in self.params]
        self._v = [np.zeros(p.shape, dtype=np.float64) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self, lr: float) -> None:
        """One update at rate ``lr`` from the grads currently stored in the params."""
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad.astype(np.float64, copy=False)
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            update = lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
            p.assign((p.value.data.astype(np.float64) - update).astype(p.value.dtype))
