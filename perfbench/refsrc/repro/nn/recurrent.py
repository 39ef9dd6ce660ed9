"""Gated recurrent unit for the GRU4Rec baseline.

Shapes and dtype contract: input ``(B, N, input_dim)``, optional
initial state ``(B, hidden_dim)``, output ``(B, N, hidden_dim)``; the
three gate projections are packed as ``(input_dim, 3*hidden_dim)`` /
``(hidden_dim, 3*hidden_dim)`` parameters in the resolved dtype (the
same packed-GEMM layout the attention fast path builds dynamically).
All input projections for the whole sequence run as one batched matmul
before the recurrence; only the hidden-to-hidden step is sequential.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.nn import init
from repro.nn.module import Module, Parameter

__all__ = ["GRU"]


class GRU(Module):
    """Single-layer GRU unrolled over the sequence axis.

    Follows the standard formulation::

        r_t = sigmoid(x_t W_xr + h_{t-1} W_hr + b_r)
        z_t = sigmoid(x_t W_xz + h_{t-1} W_hz + b_z)
        n_t = tanh(x_t W_xn + (r_t * h_{t-1}) W_hn + b_n)
        h_t = (1 - z_t) * n_t + z_t * h_{t-1}

    Returns the full hidden sequence ``(B, N, hidden)``; callers pick
    the states they need (GRU4Rec uses the last one).
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        rng: np.random.Generator | None = None,
        dtype=None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        dtype = init.resolve_dtype(dtype)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.w_x = Parameter(init.xavier_uniform(rng, (input_dim, 3 * hidden_dim), dtype=dtype), name="w_x")
        self.w_h = Parameter(init.xavier_uniform(rng, (hidden_dim, 3 * hidden_dim), dtype=dtype), name="w_h")
        self.bias = Parameter(init.zeros(3 * hidden_dim, dtype=dtype), name="bias")

    def forward(self, x: Tensor, h0: Tensor | None = None) -> Tensor:
        batch, length, _ = x.shape
        hidden = self.hidden_dim
        h = h0 if h0 is not None else Tensor(np.zeros((batch, hidden), dtype=x.dtype))

        # Precompute all input projections in one matmul: (B, N, 3H).
        x_proj = F.add(F.matmul(x, self.w_x), self.bias)
        states = []
        for t in range(length):
            xt = F.getitem(x_proj, (slice(None), t))  # (B, 3H)
            h_proj = F.matmul(h, self.w_h)  # (B, 3H)
            xr = F.getitem(xt, (slice(None), slice(0, hidden)))
            xz = F.getitem(xt, (slice(None), slice(hidden, 2 * hidden)))
            xn = F.getitem(xt, (slice(None), slice(2 * hidden, 3 * hidden)))
            hr = F.getitem(h_proj, (slice(None), slice(0, hidden)))
            hz = F.getitem(h_proj, (slice(None), slice(hidden, 2 * hidden)))
            hn = F.getitem(h_proj, (slice(None), slice(2 * hidden, 3 * hidden)))
            r = F.sigmoid(F.add(xr, hr))
            z = F.sigmoid(F.add(xz, hz))
            n = F.tanh(F.add(xn, F.mul(r, hn)))
            h = F.add(F.mul(F.sub(1.0, z), n), F.mul(z, h))
            states.append(h)
        return F.stack(states, axis=1)  # (B, N, H)
