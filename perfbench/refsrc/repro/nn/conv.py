"""Sequence convolutions for the Caser baseline.

Caser treats the embedded sequence as an ``N x d`` image and applies:

- *horizontal* filters of shape ``(h, d)`` followed by max-pooling over
  time (capturing union-level patterns of ``h`` consecutive items), and
- *vertical* filters of shape ``(N, 1)`` (weighted sums over time per
  embedding dimension).

Both are expressed through primitive autograd ops (slicing + matmul),
so no dedicated convolution kernels are required.

Shapes and dtype contract: input ``(B, N, d)`` in the resolved
parameter dtype; :class:`HorizontalConv` returns ``(B, channels)``
(max-pooled over time), :class:`VerticalConv` returns
``(B, channels * d)``.  Neither path is workspace-fused — Caser is not
a throughput baseline; see ``docs/PERFORMANCE.md`` for which paths are.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.nn import init
from repro.nn.module import Module, Parameter

__all__ = ["HorizontalConv", "VerticalConv"]


class HorizontalConv(Module):
    """Full-width window convolution with max-over-time pooling.

    Parameters
    ----------
    seq_len:
        Input sequence length ``N``.
    dim:
        Embedding width ``d``.
    height:
        Window height ``h`` (number of consecutive items).
    channels:
        Number of filters ``F``.
    """

    def __init__(
        self,
        seq_len: int,
        dim: int,
        height: int,
        channels: int,
        rng: np.random.Generator | None = None,
        dtype=None,
    ) -> None:
        super().__init__()
        if height > seq_len:
            raise ValueError(f"window height {height} exceeds sequence length {seq_len}")
        rng = rng or np.random.default_rng()
        dtype = init.resolve_dtype(dtype)
        self.seq_len = seq_len
        self.height = height
        self.channels = channels
        self.weight = Parameter(init.xavier_uniform(rng, (height * dim, channels), dtype=dtype), name="weight")
        self.bias = Parameter(init.zeros(channels, dtype=dtype), name="bias")

    def forward(self, x: Tensor) -> Tensor:
        """(B, N, d) -> (B, channels): ReLU conv then max-over-time."""
        batch, length, dim = x.shape
        windows: List[Tensor] = []
        for start in range(length - self.height + 1):
            window = F.getitem(x, (slice(None), slice(start, start + self.height)))
            windows.append(F.reshape(window, (batch, self.height * dim)))
        stacked = F.stack(windows, axis=1)  # (B, T', h*d)
        conv = F.relu(F.add(F.matmul(stacked, self.weight), self.bias))  # (B, T', C)
        # Max-over-time via softmax-free hard max: use reduce by comparing.
        return _max_over_axis(conv, axis=1)


class VerticalConv(Module):
    """Per-dimension weighted sum over the time axis (L filters)."""

    def __init__(
        self,
        seq_len: int,
        channels: int,
        rng: np.random.Generator | None = None,
        dtype=None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.seq_len = seq_len
        self.channels = channels
        self.weight = Parameter(
            init.xavier_uniform(rng, (channels, seq_len), dtype=init.resolve_dtype(dtype)),
            name="weight",
        )

    def forward(self, x: Tensor) -> Tensor:
        """(B, N, d) -> (B, channels * d)."""
        batch, _, dim = x.shape
        mixed = F.matmul(self.weight, x)  # (B, channels, d) via broadcasting
        return F.reshape(mixed, (batch, self.channels * dim))


def _max_over_axis(x: Tensor, axis: int) -> Tensor:
    """Differentiable max along ``axis`` (gradient flows to argmax)."""
    idx = None

    def forward():
        # Replay closure: argmax indices are data-dependent, so they are
        # recomputed (and rebound for the backward closure) every call.
        nonlocal idx
        data = x.data
        idx = data.argmax(axis=axis)
        return np.take_along_axis(data, np.expand_dims(idx, axis), axis=axis).squeeze(axis)

    out = forward()

    from repro.autograd.graph import record_node
    from repro.autograd.tensor import Tensor as _T, is_grad_enabled

    if not (is_grad_enabled() and (x.requires_grad or x._backward is not None)):
        result = _T(out)
        record_node(result, forward, "max_over_axis")
        return result

    def backward(grad):
        full = np.zeros_like(x.data)
        np.put_along_axis(full, np.expand_dims(idx, axis), np.expand_dims(grad, axis), axis=axis)
        return (full,)

    result = _T(out, _parents=(x,), _backward=backward)
    record_node(result, forward, "max_over_axis")
    return result
