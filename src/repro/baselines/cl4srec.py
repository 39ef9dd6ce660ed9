"""CL4SRec baseline (Xie et al., ICDE 2022).

SASRec encoder plus a contrastive task over *data-level* augmented
views: each sequence is augmented twice by a random choice of crop,
mask or reorder, and the two views are positives under InfoNCE.

All three encodes per step (original + two augmented views) run on the
fused attention fast path (:mod:`repro.nn.attention`), stacked into one
``(3B, N, d)`` forward with per-view dropout streams
(:meth:`~repro.core.encoder.SequentialEncoderBase.encode_views`).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.autograd import functional as F
from repro.autograd.graph import record_host
from repro.autograd.tensor import Tensor
from repro.baselines.sasrec import SASRec
from repro.core.contrastive import info_nce_loss
from repro.data.augmentation import crop_sequence, mask_sequence, reorder_sequence
from repro.data.batching import Batch
from repro.data.preprocess import pad_or_truncate

__all__ = ["CL4SRec", "augment_batch", "augmented_contrastive_loss"]


def augment_batch(model, input_ids: np.ndarray) -> np.ndarray:
    """One augmented view: ``model._augment_row`` applied to every row.

    Static-graph replay re-augments (fresh draws from the model's
    ``_aug_rng``) into the same array the captured graph reads from.
    """
    ids = np.asarray(input_ids)
    out = np.stack([model._augment_row(row) for row in ids])

    def refresh():
        for i, row in enumerate(ids):
            out[i] = model._augment_row(row)

    record_host(refresh, "augment")
    return out


def augmented_contrastive_loss(model, batch: Batch) -> Tensor:
    """Shared CE + InfoNCE objective over two augmented views.

    Used by the CL4SRec-style models (CL4SRec, CoSeRec) whose views
    come from index-level augmentation: the model must expose
    ``cl_weight``, ``cl_temperature`` and ``_augment_row``.  Both
    views are augmented from ``_aug_rng`` in order, then the original
    batch and the two views run as one stacked ``(3B, N, d)`` walk
    (:meth:`~repro.core.encoder.SequentialEncoderBase.encode_views`).
    """
    if model.cl_weight <= 0.0:
        return model.recommendation_loss(batch.input_ids, batch.targets)
    aug_a = augment_batch(model, batch.input_ids)
    aug_b = augment_batch(model, batch.input_ids)
    user, view_a, view_b = model.encode_views((batch.input_ids, aug_a, aug_b))
    rec = model.prediction_loss(user, batch.targets)
    cl = info_nce_loss(view_a, view_b, temperature=model.cl_temperature)
    return F.add(rec, F.mul(cl, model.cl_weight))


class CL4SRec(SASRec):
    def __init__(
        self,
        num_items: int,
        max_len: int = 50,
        hidden_dim: int = 64,
        num_layers: int = 2,
        num_heads: int = 2,
        cl_weight: float = 0.1,
        cl_temperature: float = 1.0,
        aug_ratio: float = 0.6,
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
        self.cl_weight = cl_weight
        self.cl_temperature = cl_temperature
        self.aug_ratio = aug_ratio
        # The mask augmentation uses item id 0 (padding) as the blank,
        # following the original which adds a dedicated mask item.
        self._aug_rng = np.random.default_rng(seed + 12)

    # ------------------------------------------------------------------
    def _augment_row(self, row: np.ndarray) -> np.ndarray:
        items: List[int] = [i for i in row.tolist() if i != 0]
        if not items:
            return row
        choice = int(self._aug_rng.integers(3))
        if choice == 0:
            items = crop_sequence(items, self.aug_ratio, self._aug_rng)
        elif choice == 1:
            items = mask_sequence(items, 1.0 - self.aug_ratio, 0, self._aug_rng)
        else:
            items = reorder_sequence(items, 1.0 - self.aug_ratio, self._aug_rng)
        return pad_or_truncate(items, self.max_len)

    # ------------------------------------------------------------------
    def loss(self, batch: Batch) -> Tensor:
        return augmented_contrastive_loss(self, batch)
