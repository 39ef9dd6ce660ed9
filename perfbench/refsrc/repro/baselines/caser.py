"""Caser baseline (Tang & Wang, WSDM 2018).

Convolutional sequence embedding: the embedded history is treated as an
``N x d`` image processed by horizontal filters (window heights 2..4
with max-over-time pooling) and vertical filters, concatenated and
projected back to the model width.  The per-user latent factor of the
original is omitted (the shared protocol evaluates unseen prefixes),
matching common Caser reimplementations in sequential-recommendation
benchmarks.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.core.encoder import SequentialEncoderBase
from repro.nn import Dropout, HorizontalConv, Linear, ModuleList, VerticalConv

__all__ = ["Caser"]


class Caser(SequentialEncoderBase):
    def __init__(
        self,
        num_items: int,
        max_len: int = 50,
        hidden_dim: int = 64,
        num_h_filters: int = 16,
        num_v_filters: int = 4,
        heights: tuple[int, ...] = (2, 3, 4),
        embed_dropout: float = 0.3,
        seed: int = 0,
        dtype=None,
    ) -> None:
        super().__init__(
            num_items=num_items,
            max_len=max_len,
            hidden_dim=hidden_dim,
            embed_dropout=embed_dropout,
            seed=seed,
            dtype=dtype,
        )
        rng = np.random.default_rng(seed + 6)
        self.horizontal = ModuleList(
            [
                HorizontalConv(max_len, hidden_dim, h, num_h_filters, rng=rng, dtype=self.dtype)
                for h in heights
            ]
        )
        self.vertical = VerticalConv(max_len, num_v_filters, rng=rng, dtype=self.dtype)
        concat_dim = num_h_filters * len(heights) + num_v_filters * hidden_dim
        self.project = Linear(concat_dim, hidden_dim, rng=rng, dtype=self.dtype)
        self.out_dropout = Dropout(embed_dropout, rng=np.random.default_rng(seed + 7))

    def encode_states(self, input_ids: np.ndarray) -> Tensor:
        embedded = self.embed(input_ids)  # (B, N, d)
        pieces = [conv(embedded) for conv in self.horizontal]
        pieces.append(self.vertical(embedded))
        features = F.concat(pieces, axis=1)  # (B, concat)
        user = F.relu(self.project(self.out_dropout(features)))  # (B, d)
        batch = user.shape[0]
        tiled = F.reshape(user, (batch, 1, self.hidden_dim))
        zeros = Tensor(np.zeros((batch, self.max_len, self.hidden_dim), dtype=user.dtype))
        return F.add(tiled, zeros)
