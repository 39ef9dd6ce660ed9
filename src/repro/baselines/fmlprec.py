"""FMLP-Rec baseline (Zhou et al., WWW 2022).

All-MLP architecture whose filter block multiplies the *full* spectrum
by a learnable global filter — exactly SLIME4Rec's dynamic branch with
``alpha = 1`` (the paper notes this equivalence below Eq. 20), no
static branch and no contrastive objective.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import functional as F
from repro.autograd.spectral import num_frequency_bins
from repro.autograd.tensor import Tensor
from repro.core.encoder import SequentialEncoderBase
from repro.core.filter_mixer import FilterMixerLayer, run_mixer_layers
from repro.nn import ModuleList

__all__ = ["FMLPRec"]


class FMLPRec(SequentialEncoderBase):
    def __init__(
        self,
        num_items: int,
        max_len: int = 50,
        hidden_dim: int = 64,
        num_layers: int = 2,
        embed_dropout: float = 0.3,
        hidden_dropout: float = 0.3,
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
        rng = np.random.default_rng(seed + 11)
        m = num_frequency_bins(max_len)
        full_band = np.ones(m, dtype=np.float64)
        self.layers = ModuleList(
            [
                FilterMixerLayer(
                    seq_len=max_len,
                    hidden_dim=hidden_dim,
                    dfs_mask=full_band,
                    sfs_mask=None,
                    gamma=0.0,
                    dropout=hidden_dropout,
                    rng=rng,
                    dtype=self.dtype,
                )
                for _ in range(num_layers)
            ]
        )

    def encode_states(self, input_ids: np.ndarray) -> Tensor:
        return run_mixer_layers(self.layers, self.embed(input_ids), self.inject_noise)

    def user_representation(self, input_ids: np.ndarray) -> Tensor:
        """``h_t^L`` with the last block on position ``N-1`` only
        (:meth:`FilterMixerLayer.forward_last`), as SLIME4Rec does."""
        hidden = run_mixer_layers(
            self.layers, self.embed(input_ids), self.inject_noise, last_only=True
        )
        return F.getitem(hidden, (slice(None), -1))
