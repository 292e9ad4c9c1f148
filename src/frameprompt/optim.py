"""Optimizers with per-key state, plus the warmup/cosine schedule.

step(key, param, grad) is functional: it returns the new parameter array and
keeps moment buffers internally under the key. A zero gradient with zero
weight decay leaves the parameter unchanged for both optimizers.
"""

import numpy as np

from .errors import ConfigError


class Sgd:
    def __init__(self, lr: float, momentum: float = 0.9, weight_decay: float = 0.0):
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity = {}

    def step(self, key: str, param: np.ndarray, grad: np.ndarray) -> np.ndarray:
        g = grad + self.weight_decay * param if self.weight_decay else grad
        v = self._velocity.get(key)
        v = g.copy() if v is None else self.momentum * v + g
        self._velocity[key] = v
        return param - self.lr * v


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor


class Adam:
    def __init__(self, lr: float, weight_decay: float = 0.0):
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self._m = {}
        self._v = {}
        self._t = {}

    def step(self, key: str, param: np.ndarray, grad: np.ndarray) -> np.ndarray:
        g = grad + self.weight_decay * param if self.weight_decay else grad
        t = self._t.get(key, 0) + 1
        m = BETA1 * self._m.get(key, 0.0) + (1 - BETA1) * g
        v = BETA2 * self._v.get(key, 0.0) + (1 - BETA2) * g * g
        self._t[key], self._m[key], self._v[key] = t, m, v
        mhat = m / (1 - BETA1 ** t)
        vhat = v / (1 - BETA2 ** t)
        return param - self.lr * mhat / (np.sqrt(vhat) + EPS)


def make_optimizer(name: str, lr: float, momentum: float = 0.9,
                   weight_decay: float = 0.0):
    if name == "sgd":
        return Sgd(lr, momentum=momentum, weight_decay=weight_decay)
    if name == "adam":
        return Adam(lr, weight_decay=weight_decay)
    raise ConfigError(f"unknown optimizer {name!r} (expected sgd or adam)")


def cosine_warmup_lr(base: float, epoch: int, total: int, warmup: int) -> float:
    """Linear ramp over the warmup epochs, then cosine decay to zero."""
    if total < 1 or epoch < 0 or epoch >= total:
        raise ConfigError(f"epoch {epoch} outside schedule of {total}")
    if epoch < warmup:
        return base * (epoch + 1) / min(warmup, total)
    if total <= warmup:
        return base
    frac = (epoch - warmup) / (total - warmup)
    return 0.5 * base * (1.0 + np.cos(np.pi * frac))
