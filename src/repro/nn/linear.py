"""Fully-connected layer.

Shapes and dtype contract: input ``(..., in_features)``, output
``(..., out_features)``; weight ``(in_features, out_features)`` and
bias ``(out_features,)`` live in the resolved parameter dtype
(float32/float64, see :mod:`repro.nn.init`) and activations follow it.

The attention fast path (:mod:`repro.nn.attention`) bypasses
``Linear.forward`` for its three Q/K/V projections — it concatenates
the three weight payloads into one cached ``(d, 3d)`` GEMM operand —
but the parameters remain these ``Linear`` modules, so checkpoints and
optimizers are unaffected.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.nn import init
from repro.nn.module import Module, Parameter

__all__ = ["Linear"]


class Linear(Module):
    """Affine map ``y = x @ W + b`` applied to the last axis.

    Parameters
    ----------
    in_features, out_features:
        Input and output dimensionality.
    bias:
        Whether to add a learnable bias (default True).
    rng:
        Generator used for Xavier-uniform weight init.
    dtype:
        Parameter dtype; ``None`` means float64.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
        dtype=None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        dtype = init.resolve_dtype(dtype)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.xavier_uniform(rng, (in_features, out_features), dtype=dtype), name="weight"
        )
        self.bias = Parameter(init.zeros(out_features, dtype=dtype), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features}, bias={self.bias is not None})"
