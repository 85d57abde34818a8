"""Adam with stepwise learning-rate decay and decoupled weight decay.

Weight decay applies to every parameter not inside a normalization layer
(decided by the parameter path). The learning rate at epoch e is
lr0 * decay_factor**(e // decay_period).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .model import is_normalization_param


@dataclass
class OptimConfig:
    lr0: float = 1e-3
    decay_factor: float = 0.5
    decay_period: int = 5
    batch_size: int = 8
    epochs: int = 40
    weight_decay: float = 0.005
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.batch_size < 1 or self.decay_period < 1:
            raise ConfigError("batch_size and decay_period must be positive")
        if self.epochs < 1:
            raise ConfigError("epochs must be positive")
        if not (self.lr0 > 0 and self.decay_factor > 0 and self.eps > 0):
            raise ConfigError("lr0, decay_factor and eps must be positive")
        if not self.weight_decay >= 0:
            raise ConfigError("weight_decay must be non-negative")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError("beta1 and beta2 must be in [0, 1)")


def learning_rate(cfg, epoch):
    return cfg.lr0 * cfg.decay_factor ** (epoch // cfg.decay_period)


class AdamState:
    def __init__(self, params):
        self.step = 0
        self.m = {name: np.zeros_like(t.data) for name, t in params.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in params.items()}


def adam_step(params, state, cfg, epoch):
    """One update over all parameters using their accumulated gradients.

    A missing gradient counts as zero. Non-finite gradients abort the step
    before any parameter is touched.
    """
    for name, t in params.items():
        if t.grad is not None and not np.isfinite(t.grad).all():
            raise NumericError(f"non-finite gradient for parameter {name}")

    lr = learning_rate(cfg, epoch)
    state.step += 1
    bias1 = 1.0 - cfg.beta1 ** state.step
    bias2 = 1.0 - cfg.beta2 ** state.step
    for name, t in params.items():
        g = t.grad if t.grad is not None else np.zeros_like(t.data)
        m = state.m[name]
        v = state.v[name]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g * g
        update = lr * (m / bias1) / (np.sqrt(v / bias2) + cfg.eps)
        if cfg.weight_decay > 0.0 and not is_normalization_param(name):
            update = update + lr * cfg.weight_decay * t.data
        t.data = t.data - update
    return lr
