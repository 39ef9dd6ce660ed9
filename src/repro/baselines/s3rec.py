"""S3Rec baseline (Zhou et al., CIKM 2020), simplified.

Self-supervised pretraining for sequential recommendation.  The
original uses four mutual-information objectives over item attributes;
without attribute data the practical core is the *masked item
prediction* pretraining stage followed by next-item fine-tuning on the
same bidirectional-turned-causal encoder.  This implementation
pretrains with a Cloze objective for a fixed number of epochs, then
fine-tunes with the shared next-item cross-entropy — enough to exercise
the pretrain-then-finetune training scheme the paper's related work
discusses.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import functional as F
from repro.autograd.graph import GraphCaptureError, is_capturing
from repro.autograd.tensor import Tensor
from repro.baselines.sasrec import SASRec
from repro.data.batching import Batch

__all__ = ["S3Rec"]

_IGNORE = -100


class S3Rec(SASRec):
    """SASRec encoder with a masked-item pretraining phase.

    Call :meth:`pretrain_epoch` over batches before normal training,
    or simply train: the first ``pretrain_epochs`` worth of ``loss``
    calls automatically use the Cloze objective (tracked by a step
    counter sized from the dataset), then switch to next-item CE.
    """

    def __init__(
        self,
        num_items: int,
        max_len: int = 50,
        hidden_dim: int = 64,
        num_layers: int = 2,
        num_heads: int = 2,
        mask_prob: float = 0.2,
        pretrain_steps: int = 0,
        embed_dropout: float = 0.3,
        hidden_dropout: float = 0.3,
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
            seed=seed,
            dtype=dtype,
        )
        self.mask_prob = mask_prob
        self.pretrain_steps = pretrain_steps
        self._steps_done = 0
        self._mask_rng = np.random.default_rng(seed + 23)

    def cloze_loss(self, batch: Batch) -> Tensor:
        """Masked-item objective over the batch sequences.

        Uses item id 0 (padding) as the blank token so no extra
        embedding row is needed; masked positions are never padding.
        """
        inputs = np.asarray(batch.input_ids, dtype=np.int64).copy()
        labels = np.full_like(inputs, _IGNORE)
        real = inputs != 0
        masked = real & (self._mask_rng.random(inputs.shape) < self.mask_prob)
        # Guarantee at least one masked position per row with history.
        for row in range(inputs.shape[0]):
            if real[row].any() and not masked[row].any():
                last = np.where(real[row])[0][-1]
                masked[row, last] = True
        labels[masked] = inputs[masked]
        corrupted = np.where(masked, 0, inputs)
        states = self.encode_states(corrupted)
        return F.linear_cross_entropy(
            states, self._score_table(), labels, ignore_index=_IGNORE
        )

    def loss(self, batch: Batch) -> Tensor:
        if is_capturing():
            raise GraphCaptureError(
                "S3Rec.loss is not replay-safe: the pretrain->finetune switch "
                "changes the graph topology at a step count the tape executor "
                "cannot observe; train S3Rec with static_graph=False"
            )
        self._steps_done += 1
        if self._steps_done <= self.pretrain_steps:
            return self.cloze_loss(batch)
        return self.recommendation_loss(batch.input_ids, batch.targets)
