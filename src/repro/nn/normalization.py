"""Normalization layers.

Shapes and dtype contract: :class:`LayerNorm` normalizes the last axis
of any ``(..., dim)`` floating input; ``gamma``/``beta`` are ``(dim,)``
parameters in the resolved dtype and output/gradients keep the input
dtype.  The underlying op (:func:`repro.autograd.functional.layer_norm`)
is fused: forward folds its intermediates in place, and the backward
routes its transient product buffer through the shared per-step
workspace (:mod:`repro.nn.workspace`).  Given a residual, the forward
runs a block's whole post-norm tail, ``dropout → residual add →
LayerNorm``, as one node
(:func:`repro.autograd.functional.dropout_add_layer_norm`).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.nn import init
from repro.nn.dropout import Dropout
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

    def forward(
        self,
        x: Tensor,
        residual: Sequence[Tensor] = (),
        dropout: Optional[Dropout] = None,
        seq_len: Optional[int] = None,
    ) -> Tensor:
        """``norm(x)``, or with ``residual=(r,)`` / ``(r, h)`` the post-norm
        tail ``norm(r + dropout(x))`` / ``norm((r + h) + dropout(x))`` as
        one node; ``dropout`` (required with ``residual``) is the block's
        :class:`Dropout` (its ``p``, mode and generator) and ``seq_len``
        its last-positions contract
        (:func:`repro.autograd.functional.dropout`)."""
        if not residual:
            return F.layer_norm(x, self.gamma, self.beta, eps=self.eps)
        return F.dropout_add_layer_norm(
            x, residual, self.gamma, self.beta, dropout.p, dropout.training, dropout.rng,
            seq_len=seq_len, eps=self.eps,
        )

    def __repr__(self) -> str:
        return f"LayerNorm({self.dim}, eps={self.eps})"
