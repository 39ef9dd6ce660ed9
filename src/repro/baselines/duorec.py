"""DuoRec baseline (Qiu et al., WSDM 2022).

The paper's strongest baseline: a SASRec encoder regularized by
(a) unsupervised model-level contrast — the same sequence encoded twice
with different dropout masks — and (b) supervised contrast with another
training sequence sharing the same target item.  SLIME4Rec borrows this
exact contrastive recipe, so DuoRec differs from it only in the encoder
(self-attention vs slide filter mixer), which is what Table V isolates.

The step's three encodes — main pass, dropout view, same-target view —
run as one stacked ``(3B, N, d)`` forward
(:meth:`~repro.core.encoder.SequentialEncoderBase.encode_views`) on the
fused attention fast path (:mod:`repro.nn.attention`); each dropout
site's C-order draw over the stacked batch is the three views' separate
masks.
"""

from __future__ import annotations

from repro.autograd.tensor import Tensor
from repro.baselines.sasrec import SASRec
from repro.core.contrastive import same_target_contrastive_loss
from repro.data.batching import Batch

__all__ = ["DuoRec"]


class DuoRec(SASRec):
    def __init__(
        self,
        num_items: int,
        max_len: int = 50,
        hidden_dim: int = 64,
        num_layers: int = 2,
        num_heads: int = 2,
        cl_weight: float = 0.1,
        cl_temperature: float = 1.0,
        embed_dropout: float = 0.3,
        hidden_dropout: float = 0.3,
        noise_eps: float = 0.0,
        seed: int = 0,
        dtype=None,
    ) -> None:
        super().__init__(
            num_items=num_items,
            max_len=max_len,
            hidden_dim=hidden_dim,
            num_layers=num_layers,
            num_heads=num_heads,
            embed_dropout=embed_dropout,
            hidden_dropout=hidden_dropout,
            noise_eps=noise_eps,
            seed=seed,
            dtype=dtype,
        )
        self.cl_weight = cl_weight
        self.cl_temperature = cl_temperature

    def loss(self, batch: Batch) -> Tensor:
        return same_target_contrastive_loss(
            self, batch, self.cl_weight, self.cl_temperature
        )
