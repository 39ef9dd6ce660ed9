"""Embedding lookup table.

Shapes and dtype contract: integer indices of any shape ``(...,)``
gather rows from a ``(num_embeddings, embedding_dim)`` weight in the
resolved parameter dtype, producing ``(..., embedding_dim)``.  The
backward is a flat-``bincount`` segment sum whose linear-index scratch
comes from the shared per-step workspace
(:func:`repro.autograd.functional.embedding`); gradients return in the
weight's dtype.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.nn import init
from repro.nn.module import Module, Parameter

__all__ = ["Embedding"]


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors.

    Index 0 is conventionally the padding item in this codebase; set
    ``padding_idx=0`` to keep its vector frozen at zero (its gradient is
    cleared after every backward inside the optimizer step).
    """

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        padding_idx: int | None = None,
        std: float = 0.02,
        rng: np.random.Generator | None = None,
        dtype=None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.padding_idx = padding_idx
        weight = init.normal(rng, (num_embeddings, embedding_dim), std=std, dtype=dtype)
        if padding_idx is not None:
            weight[padding_idx] = 0.0
        self.weight = Parameter(weight, name="embedding")

    def forward(self, indices) -> Tensor:
        return F.embedding(self.weight, indices)

    def zero_padding_row(self) -> None:
        """Reset the padding embedding to zero (call after optimizer steps)."""
        if self.padding_idx is not None:
            self.weight.data[self.padding_idx] = 0.0

    def __repr__(self) -> str:
        return f"Embedding({self.num_embeddings}, {self.embedding_dim}, padding_idx={self.padding_idx})"
