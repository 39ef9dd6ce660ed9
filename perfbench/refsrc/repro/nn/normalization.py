"""Normalization layers.

Shapes and dtype contract: :class:`LayerNorm` normalizes the last axis
of any ``(..., dim)`` floating input; ``gamma``/``beta`` are ``(dim,)``
parameters in the resolved dtype and output/gradients keep the input
dtype.  The underlying op (:func:`repro.autograd.functional.layer_norm`)
is fused: forward folds its intermediates in place, and the backward
routes its transient product buffer through the shared per-step
workspace (:mod:`repro.nn.workspace`).
"""

from __future__ import annotations

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.nn import init
from repro.nn.module import Module, Parameter

__all__ = ["LayerNorm"]


class LayerNorm(Module):
    """Layer normalization over the last axis with learnable affine.

    The paper uses eps=1e-12 (the BERT/FMLP-Rec convention).
    """

    def __init__(self, dim: int, eps: float = 1e-12, dtype=None) -> None:
        super().__init__()
        dtype = init.resolve_dtype(dtype)
        self.dim = dim
        self.eps = eps
        self.gamma = Parameter(init.ones(dim, dtype=dtype), name="gamma")
        self.beta = Parameter(init.zeros(dim, dtype=dtype), name="beta")

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.gamma, self.beta, eps=self.eps)

    def __repr__(self) -> str:
        return f"LayerNorm({self.dim}, eps={self.eps})"
