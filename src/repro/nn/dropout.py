"""Dropout layer with an owned random stream.

Shapes and dtype contract: any floating input, output of the same
shape and dtype; the eval-mode forward returns the input tensor itself
(no copy, no graph node).

The mask is the raw-bit rule: raw 64-bit words from this layer's own
generator, read as uint16 lanes, an element kept iff its lane is below
``round((1 - p)·65536)``; each last-axis row starts on a word boundary
and rows are drawn in C order through one bounded block.  A stacked
``(V*B, N, d)`` multi-view call therefore draws the masks of ``V``
separate ``(B, N, d)`` calls.  Given ``seq_len=N``, a
``(B, n, d)`` input is the last ``n`` positions of a ``(B, N, d)``
batch (a ``(B, H, n, N)`` one the last ``n`` query rows of attention
probabilities): only the kept rows are drawn and the generator skips
past the others, so the mask equals the full-length mask sliced on
axis -2 and the generator ends where the full-length call leaves it.
See :func:`repro.autograd.functional.dropout` for the exact contract.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.nn.module import Module

__all__ = ["Dropout"]


class Dropout(Module):
    """Inverted dropout; a no-op in eval mode.

    Each instance owns a ``numpy.random.Generator`` so two dropout
    layers with different seeds produce *different* stochastic views of
    the same input — exactly the property SLIME4Rec's unsupervised
    contrastive augmentation relies on.
    """

    def __init__(self, p: float, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng or np.random.default_rng()

    def forward(self, x: Tensor, seq_len: int | None = None) -> Tensor:
        """``seq_len`` marks ``x`` as the trailing positions of a longer
        sequence batch: the mask is the full-length mask's trailing rows
        (see :func:`repro.autograd.functional.dropout`)."""
        return F.dropout(x, self.p, training=self.training, rng=self.rng, seq_len=seq_len)

    def __repr__(self) -> str:
        return f"Dropout(p={self.p})"
