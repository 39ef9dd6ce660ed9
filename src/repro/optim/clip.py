"""Global gradient-norm clipping."""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from repro.autograd.tensor import Tensor

__all__ = ["clip_grad_norm"]


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
