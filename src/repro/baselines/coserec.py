"""CoSeRec baseline (Liu et al. 2021).

CL4SRec's pipeline with *robust* augmentations: instead of destructive
crop/mask/reorder, items are substituted by or have inserted next to
them their most co-occurrence-correlated neighbours, producing harder
but semantically consistent positive views.

Like CL4SRec, every encode runs on the fused attention fast path
(:mod:`repro.nn.attention`), and the step's three encodes stack into
one ``(3B, N, d)`` forward with per-view dropout streams
(:meth:`~repro.core.encoder.SequentialEncoderBase.encode_views`); the
augmentation itself is index-level work outside the autograd graph.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.autograd.tensor import Tensor
from repro.baselines.cl4srec import augmented_contrastive_loss
from repro.baselines.sasrec import SASRec
from repro.data.augmentation import ItemCorrelation, insert_sequence, substitute_sequence
from repro.data.batching import Batch
from repro.data.dataset import SequenceDataset
from repro.data.preprocess import pad_or_truncate

__all__ = ["CoSeRec"]


class CoSeRec(SASRec):
    def __init__(
        self,
        num_items: int,
        max_len: int = 50,
        hidden_dim: int = 64,
        num_layers: int = 2,
        num_heads: int = 2,
        cl_weight: float = 0.1,
        cl_temperature: float = 1.0,
        aug_ratio: float = 0.3,
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
        self._aug_rng = np.random.default_rng(seed + 13)
        self._correlation: ItemCorrelation | None = None

    def prepare(self, dataset: SequenceDataset) -> "CoSeRec":
        """Fit the item co-occurrence statistics on the training split."""
        self._correlation = ItemCorrelation(dataset.train_sequences)
        return self

    # ------------------------------------------------------------------
    def _augment_row(self, row: np.ndarray) -> np.ndarray:
        items: List[int] = [i for i in row.tolist() if i != 0]
        if not items or self._correlation is None:
            return row
        if self._aug_rng.random() < 0.5:
            items = substitute_sequence(items, self.aug_ratio, self._correlation, self._aug_rng)
        else:
            items = insert_sequence(items, self.aug_ratio, self._correlation, self._aug_rng)
        return pad_or_truncate(items, self.max_len)

    # ------------------------------------------------------------------
    def loss(self, batch: Batch) -> Tensor:
        return augmented_contrastive_loss(self, batch)
