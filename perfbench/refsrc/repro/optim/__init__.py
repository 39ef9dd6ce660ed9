"""Optimizers and learning-rate schedules for the repro autograd engine."""

from repro.optim.optimizer import Optimizer, clip_grad_norm
from repro.optim.adam import Adam
from repro.optim.sgd import SGD
from repro.optim.lr_scheduler import ConstantLR, LRScheduler, StepLR, WarmupCosineLR

__all__ = [
    "Optimizer",
    "Adam",
    "SGD",
    "clip_grad_norm",
    "LRScheduler",
    "ConstantLR",
    "StepLR",
    "WarmupCosineLR",
]
