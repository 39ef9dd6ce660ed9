"""Learning-rate schedules.

The paper trains with a constant lr=1e-3, but depth experiments
(Table V, L=8) benefit from warmup on some seeds; schedulers are
provided as an opt-in trainer feature and ablation knob.

Resume semantics: a scheduler anchors its shape to ``base_lr``.  By
default that is ``optimizer.lr`` *at construction* — correct for a
fresh run, silently wrong when a scheduler is rebuilt mid-run (the
optimizer's lr has already been decayed, so warmup would re-anchor to
the decayed value).  Two supported ways to resume:

- pass ``last_step`` (and, when rebuilding against an already-stepped
  optimizer, an explicit ``base_lr``) to the constructor;
- round-trip :meth:`LRScheduler.state_dict` /
  :meth:`LRScheduler.load_state_dict`, which restores both the step
  counter and the anchor and re-applies the current lr to the
  optimizer.
"""

from __future__ import annotations

import math
from typing import Dict

from repro.optim.optimizer import Optimizer

__all__ = ["LRScheduler", "ConstantLR", "StepLR", "WarmupCosineLR"]


class LRScheduler:
    """Base class: mutates ``optimizer.lr`` on every :meth:`step`.

    Parameters
    ----------
    optimizer:
        The optimizer whose ``lr`` this schedule drives.
    last_step:
        Step count already taken (0 for a fresh run).  The next
        :meth:`step` call computes step ``last_step + 1``, so a
        scheduler rebuilt with the saved step count continues the
        schedule instead of restarting warmup.  Concrete subclasses
        also re-apply the lr for ``last_step`` to the optimizer at
        construction.
    base_lr:
        Explicit schedule anchor.  ``None`` (default) captures
        ``optimizer.lr`` — only correct when the optimizer has not been
        stepped by a previous schedule; pass the original anchor when
        resuming mid-run.
    """

    def __init__(
        self,
        optimizer: Optimizer,
        last_step: int = 0,
        base_lr: float | None = None,
    ) -> None:
        if last_step < 0:
            raise ValueError(f"last_step must be >= 0, got {last_step}")
        self.optimizer = optimizer
        self.base_lr = float(optimizer.lr if base_lr is None else base_lr)
        self._step_count = int(last_step)

    @property
    def last_step(self) -> int:
        """Number of :meth:`step` calls taken (including ``last_step`` credit)."""
        return self._step_count

    def step(self) -> float:
        """Advance one step and return the new learning rate."""
        self._step_count += 1
        lr = self.get_lr(self._step_count)
        self.optimizer.lr = lr
        return lr

    def get_lr(self, step: int) -> float:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, float]:
        """The resume state: step counter and schedule anchor."""
        return {"step": self._step_count, "base_lr": self.base_lr}

    def load_state_dict(self, state: Dict[str, float]) -> None:
        """Restore a :meth:`state_dict` and re-apply the current lr.

        After loading, ``optimizer.lr`` equals what it was when the
        state was saved (for ``step >= 1``; at step 0 the anchor
        itself), and the next :meth:`step` continues the schedule.
        """
        self.base_lr = float(state["base_lr"])
        self._step_count = int(state["step"])
        self._resync()

    def _resync(self) -> None:
        """Write the lr for the current step count back to the optimizer.

        Called by :meth:`load_state_dict` and by concrete subclasses at
        the end of construction (once their schedule parameters exist),
        so a resumed scheduler never leaves a stale lr on the optimizer
        between construction and the first step.
        """
        self.optimizer.lr = self.get_lr(self._step_count) if self._step_count else self.base_lr


class ConstantLR(LRScheduler):
    def __init__(
        self,
        optimizer: Optimizer,
        last_step: int = 0,
        base_lr: float | None = None,
    ) -> None:
        super().__init__(optimizer, last_step=last_step, base_lr=base_lr)
        self._resync()

    def get_lr(self, step: int) -> float:
        return self.base_lr


class StepLR(LRScheduler):
    """Multiply the lr by ``gamma`` every ``step_size`` steps."""

    def __init__(
        self,
        optimizer: Optimizer,
        step_size: int,
        gamma: float = 0.5,
        last_step: int = 0,
        base_lr: float | None = None,
    ) -> None:
        super().__init__(optimizer, last_step=last_step, base_lr=base_lr)
        if step_size < 1:
            raise ValueError("step_size must be >= 1")
        self.step_size = step_size
        self.gamma = gamma
        self._resync()

    def get_lr(self, step: int) -> float:
        return self.base_lr * self.gamma ** (step // self.step_size)


class WarmupCosineLR(LRScheduler):
    """Linear warmup followed by cosine decay to ``min_lr``."""

    def __init__(
        self,
        optimizer: Optimizer,
        warmup_steps: int,
        total_steps: int,
        min_lr: float = 0.0,
        last_step: int = 0,
        base_lr: float | None = None,
    ) -> None:
        super().__init__(optimizer, last_step=last_step, base_lr=base_lr)
        if total_steps <= warmup_steps:
            raise ValueError("total_steps must exceed warmup_steps")
        self.warmup_steps = warmup_steps
        self.total_steps = total_steps
        self.min_lr = min_lr
        self._resync()

    def get_lr(self, step: int) -> float:
        if self.warmup_steps and step <= self.warmup_steps:
            return self.base_lr * step / self.warmup_steps
        progress = (step - self.warmup_steps) / (self.total_steps - self.warmup_steps)
        progress = min(progress, 1.0)
        cosine = 0.5 * (1.0 + math.cos(math.pi * progress))
        return self.min_lr + (self.base_lr - self.min_lr) * cosine
