"""GRU4Rec baseline (Hidasi et al. 2016 / Jannach & Ludewig 2017)."""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor
from repro.core.encoder import SequentialEncoderBase
from repro.nn import GRU

__all__ = ["GRU4Rec"]


class GRU4Rec(SequentialEncoderBase):
    """Item embedding -> GRU -> final hidden state as user preference."""

    def __init__(
        self,
        num_items: int,
        max_len: int = 50,
        hidden_dim: int = 64,
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
        self.gru = GRU(hidden_dim, hidden_dim, rng=np.random.default_rng(seed + 5), dtype=self.dtype)

    def encode_states(self, input_ids: np.ndarray) -> Tensor:
        return self.gru(self.embed(input_ids))
