"""Transformer encoder blocks shared by the attention-based baselines.

Shapes: ``(B, N, dim)`` in, ``(B, N, dim)`` out, post-norm residual
wiring (the SASRec/BERT4Rec convention); ``forward_last`` returns the
last position only, ``(B, 1, dim)``.  Each block's attention runs
on the fused workspace fast path — one ``(dim, 3*dim)``
Q/K/V GEMM, score scale folded into Q, cached block masks, fused
output projection (see :mod:`repro.nn.attention`) — and its dropout
sites draw masks through the shared per-step workspace.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.core.encoder import PointwiseFeedForward
from repro.nn import Dropout, LayerNorm, Module, ModuleList, MultiHeadSelfAttention

__all__ = ["TransformerBlock", "TransformerEncoder"]


class TransformerBlock(Module):
    """Post-norm transformer block (the SASRec/BERT4Rec convention)."""

    def __init__(
        self,
        dim: int,
        num_heads: int = 2,
        dropout: float = 0.3,
        causal: bool = True,
        rng: np.random.Generator | None = None,
        dtype=None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.attention = MultiHeadSelfAttention(
            dim, num_heads, dropout=dropout, causal=causal, rng=rng, dtype=dtype
        )
        self.attn_norm = LayerNorm(dim, dtype=dtype)
        self.attn_dropout = Dropout(dropout, rng=np.random.default_rng(rng.integers(2**32)))
        self.ffn = PointwiseFeedForward(dim, inner_dim=4 * dim, rng=rng, dtype=dtype)
        self.ffn_norm = LayerNorm(dim, dtype=dtype)
        self.ffn_dropout = Dropout(dropout, rng=np.random.default_rng(rng.integers(2**32)))

    def forward(self, x: Tensor, key_padding_mask: np.ndarray | None = None) -> Tensor:
        return self._position_wise(x, self.attention(x, key_padding_mask=key_padding_mask))

    def forward_last(self, x: Tensor, key_padding_mask: np.ndarray | None = None) -> Tensor:
        """The block's output at the last position only: ``(B, 1, d)``.

        Equals ``forward(x)[:, -1:]`` (to float reassociation).  Keys
        and values need all ``N`` input positions; the query, and the
        rest of the block, is position-wise, so attention runs with the
        last query only and the tail on position ``N-1`` alone.  Every
        dropout site draws the last row of its full-length mask and
        skips its generator past the rest, which leaves every mask and
        generator stream unchanged.
        """
        attended = self.attention(x, key_padding_mask=key_padding_mask, last_query=True)
        last = F.getitem(x, (slice(None), slice(-1, None)))
        return self._position_wise(last, attended, seq_len=x.shape[1])

    def _position_wise(self, x: Tensor, attended: Tensor, seq_len: int | None = None) -> Tensor:
        # Each dropout → residual add → LayerNorm tail is one fused node.
        x = self.attn_norm(attended, residual=(x,), dropout=self.attn_dropout, seq_len=seq_len)
        return self.ffn_norm(self.ffn(x), residual=(x,), dropout=self.ffn_dropout, seq_len=seq_len)


class TransformerEncoder(Module):
    """A stack of :class:`TransformerBlock` layers."""

    def __init__(
        self,
        dim: int,
        num_layers: int,
        num_heads: int = 2,
        dropout: float = 0.3,
        causal: bool = True,
        rng: np.random.Generator | None = None,
        dtype=None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.blocks = ModuleList(
            [
                TransformerBlock(
                    dim, num_heads=num_heads, dropout=dropout, causal=causal, rng=rng, dtype=dtype
                )
                for _ in range(num_layers)
            ]
        )

    def forward(self, x: Tensor, key_padding_mask: np.ndarray | None = None) -> Tensor:
        for block in self.blocks:
            x = block(x, key_padding_mask=key_padding_mask)
        return x
