"""Optimizer base class and gradient utilities."""

from __future__ import annotations

import math
from typing import Dict, Iterable, List

import numpy as np

from repro.autograd.tensor import Tensor

__all__ = ["Optimizer", "clip_grad_norm"]


class Optimizer:
    """Base class: holds parameter references and clears gradients."""

    def __init__(self, params: Iterable[Tensor]) -> None:
        self.params: List[Tensor] = [p for p in params if p.requires_grad]
        if not self.params:
            raise ValueError("optimizer received no trainable parameters")

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Resume state
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict:
        """Hyper-parameters plus per-parameter buffers, for checkpointing.

        Subclasses extend the base dict (which carries ``lr`` — the one
        hyper-parameter mutated at runtime, by LR schedules) with their
        own moment/velocity buffers; buffer arrays are copies, safe to
        archive.  Restoring with :meth:`load_state_dict` continues the
        update sequence bitwise-identically.
        """
        return {"lr": float(self.lr)} if hasattr(self, "lr") else {}

    def load_state_dict(self, state: Dict) -> None:
        if "lr" in state and hasattr(self, "lr"):
            self.lr = float(state["lr"])

    def _restore_buffers(self, buffers, saved, label: str) -> None:
        """Copy ``saved`` arrays into preallocated ``buffers`` in place.

        Shared by subclass ``load_state_dict`` implementations; validates
        count, shape and dtype so a checkpoint from a differently built
        model (or dtype) fails loudly instead of corrupting moments.
        """
        if len(saved) != len(buffers):
            raise ValueError(
                f"optimizer state mismatch: checkpoint has {len(saved)} "
                f"{label} buffers, optimizer has {len(buffers)}"
            )
        for i, (buf, value) in enumerate(zip(buffers, saved)):
            value = np.asarray(value)
            if value.shape != buf.shape or value.dtype != buf.dtype:
                raise ValueError(
                    f"optimizer {label} buffer {i} mismatch: checkpoint has "
                    f"{value.dtype}{value.shape}, optimizer has {buf.dtype}{buf.shape}"
                )
            np.copyto(buf, value)


def clip_grad_norm(params: Iterable[Tensor], max_norm: float) -> float:
    """Clip the global L2 norm of all gradients in-place.

    Returns the pre-clipping norm (useful for logging exploding grads).

    Non-finite gradients: when any gradient holds a NaN/Inf the global
    norm itself is non-finite, and scaling by ``max_norm / norm`` would
    multiply **every** parameter's gradient by NaN (or zero), silently
    poisoning the whole model in one step.  The gradients are therefore
    returned *unscaled* in that case and the non-finite norm is
    reported to the caller — the trainer's numeric-guard policy
    (:class:`repro.train.trainer.TrainConfig.guard_policy`) decides
    whether to raise, skip the step, or roll back to a checkpoint.
    """
    params = [p for p in params if p.grad is not None]
    total = float(np.sqrt(sum(float((p.grad ** 2).sum()) for p in params)))
    if not math.isfinite(total):
        return total
    if total > max_norm and total > 0:
        scale = max_norm / total
        for p in params:
            # getattr: duck-typed parameter stubs (tests) may not carry
            # the ownership slot; borrowed is the safe default.
            if getattr(p, "_grad_owned", False):
                # Owned buffers are per-parameter allocations (a copy or
                # the result of ``+``), so scaling in place is safe and —
                # crucially for the static-graph executor, which seeds
                # persistent per-parameter grad buffers before every
                # backward — keeps the buffer identity stable instead of
                # orphaning it with a fresh allocation each step.
                np.multiply(p.grad, scale, out=p.grad)
            else:
                # Borrowed references may be shared between parameters
                # (a backward closure can hand the same array to two
                # parents), so in-place scaling would double-apply; the
                # rebind allocates and the grad setter marks it borrowed.
                p.grad = p.grad * scale
    return total
