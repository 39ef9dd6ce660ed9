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

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.baselines.sasrec import SASRec
from repro.core.contrastive import info_nce_loss
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
        if self.cl_weight <= 0.0 or batch.positive_ids is None:
            return self.recommendation_loss(batch.input_ids, batch.targets)
        # One stacked (3B, N, d) walk: main + dropout + same-target
        # views under per-view dropout streams (see encode_views).
        user, unsup, sup = self.encode_views(
            (batch.input_ids, batch.input_ids, batch.positive_ids)
        )
        rec = self.prediction_loss(user, batch.targets)
        cl = info_nce_loss(unsup, sup, temperature=self.cl_temperature)
        return F.add(rec, F.mul(cl, self.cl_weight))
