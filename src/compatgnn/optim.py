"""Adam with classic L2-in-gradient weight decay."""

import numpy as np

from .errors import NumericalError
from .autodiff import grad_of


class Adam:
    """Per-parameter first/second moment state; bias-corrected updates.

    Weight decay enters as `grad + wd * param` (the classic convention),
    so wd=0 plus zero gradients leaves parameters untouched.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr, weight_decay=0.0):
        self.params = dict(params)
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.t = 0
        self.m = {k: np.zeros_like(p.value) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.value) for k, p in self.params.items()}

    # an overflow is reported by the finite check, not by a numpy warning
    @np.errstate(over="ignore", invalid="ignore")
    def step(self):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            g = grad_of(p)
            if not np.all(np.isfinite(g)):
                raise NumericalError(f"non-finite gradient for parameter {name!r}")
            if self.weight_decay != 0.0:
                g = g + self.weight_decay * p.value
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            value = p.value - self.lr * update
            # an inf v zeroes the update: it must fail, not stop training
            if not (np.isfinite(v).all() and np.isfinite(value).all()):
                raise NumericalError(f"non-finite Adam step for parameter {name!r}")
            p.value = value
