"""Plain SGD with optional momentum (used in ablation/testing)."""

from __future__ import annotations

from typing import Dict, Iterable

import numpy as np

from repro.autograd.tensor import Tensor, bump_parameter_version
from repro.optim.optimizer import Optimizer

__all__ = ["SGD"]


class SGD(Optimizer):
    """SGD updating ``p.data`` (and the velocity buffers) fully in place.

    A preallocated per-parameter scratch buffer absorbs the weight-decay
    and learning-rate scalings, so a step allocates nothing.
    """

    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float = 1e-2,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.params] if momentum else None
        self._scratch = [np.empty_like(p.data) for p in self.params]

    def step(self) -> None:
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            grad = p.grad
            s = self._scratch[i]
            if self.weight_decay:
                np.multiply(p.data, self.weight_decay, out=s)
                s += grad
                grad = s
            if self._velocity is not None:
                vel = self._velocity[i]
                vel *= self.momentum
                vel += grad
                grad = vel
            if grad is s:
                s *= self.lr
            else:
                np.multiply(grad, self.lr, out=s)
            p.data -= s
        bump_parameter_version()

    # ------------------------------------------------------------------
    # Resume state
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict:
        state = super().state_dict()
        if self._velocity is not None:
            state["velocity"] = [v.copy() for v in self._velocity]
        return state

    def load_state_dict(self, state: Dict) -> None:
        super().load_state_dict(state)
        if (self._velocity is not None) != ("velocity" in state):
            raise ValueError(
                "optimizer state mismatch: momentum buffers present on only "
                "one side of the restore"
            )
        if self._velocity is not None:
            self._restore_buffers(self._velocity, state["velocity"], "velocity")
