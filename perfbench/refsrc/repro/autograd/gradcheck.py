"""Finite-difference gradient checking for the autograd engine."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.autograd.tensor import Tensor

__all__ = ["gradcheck", "numerical_gradient"]


def numerical_gradient(
    func: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    index: int,
    eps: float = 1e-5,
) -> np.ndarray:
    """Central-difference gradient of ``sum(func(*inputs))`` w.r.t. one input."""
    target = inputs[index]
    grad = np.zeros_like(target.data)
    flat = target.data.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        high = float(func(*inputs).data.sum())
        flat[i] = original - eps
        low = float(func(*inputs).data.sum())
        flat[i] = original
        grad_flat[i] = (high - low) / (2.0 * eps)
    return grad


def gradcheck(
    func: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    eps: float = 1e-5,
    atol: float = 1e-4,
    rtol: float = 1e-3,
) -> bool:
    """Verify analytic gradients of ``func`` against finite differences.

    ``func`` must be a pure function of its tensor inputs returning a
    tensor; the check differentiates ``sum(func(*inputs))``.  Inputs
    should be float64 for tight tolerances.  Raises ``AssertionError``
    with a diagnostic message on mismatch, returns True on success.
    """
    for t in inputs:
        t.zero_grad()
    out = func(*inputs)
    out.backward(np.ones_like(out.data))
    for i, tensor in enumerate(inputs):
        if not tensor.requires_grad:
            continue
        analytic = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        numeric = numerical_gradient(func, inputs, i, eps=eps)
        if not np.allclose(analytic, numeric, atol=atol, rtol=rtol):
            worst = np.abs(analytic - numeric).max()
            raise AssertionError(
                f"gradient mismatch for input {i}: max abs error {worst:.3e}\n"
                f"analytic:\n{analytic}\nnumeric:\n{numeric}"
            )
    return True
