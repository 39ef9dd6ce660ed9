"""BPR-MF baseline (Rendle et al. 2012).

Classic non-sequential matrix factorization trained with the pairwise
Bayesian Personalized Ranking loss.  Adaptation for the shared
sequence-in/scores-out interface: the user factor is the mean of the
embeddings of the user's interacted items (an order-invariant pooling,
FISM-style), which preserves the property the paper relies on — BPR-MF
ignores sequential information entirely — while letting it rank unseen
evaluation users.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import functional as F
from repro.autograd.graph import record_host
from repro.autograd.tensor import Tensor
from repro.core.encoder import SequentialEncoderBase
from repro.data.batching import Batch

__all__ = ["BPRMF"]


class BPRMF(SequentialEncoderBase):
    """Order-invariant MF with BPR loss and sampled negatives."""

    def __init__(
        self,
        num_items: int,
        max_len: int = 50,
        hidden_dim: int = 64,
        num_negatives: int = 1,
        seed: int = 0,
        dtype=None,
    ) -> None:
        super().__init__(
            num_items=num_items,
            max_len=max_len,
            hidden_dim=hidden_dim,
            embed_dropout=0.0,
            seed=seed,
            dtype=dtype,
        )
        self.num_negatives = num_negatives
        self._neg_rng = np.random.default_rng(seed + 17)

    def encode_states(self, input_ids: np.ndarray) -> Tensor:
        """Mean-pool item embeddings, replicated across positions."""
        input_ids = np.asarray(input_ids, dtype=np.int64)
        embedded = self.item_embedding(input_ids)  # (B, N, d)
        counts = np.maximum((input_ids != 0).sum(axis=1, keepdims=True), 1).astype(embedded.dtype)
        # Static-graph replay: refresh the history-length denominators in
        # place from the persistent input buffer.
        record_host(
            lambda: np.copyto(
                counts, np.maximum((input_ids != 0).sum(axis=1, keepdims=True), 1)
            ),
            "bprmf.counts",
        )
        pooled = F.div(F.sum(embedded, axis=1), Tensor(counts))  # (B, d)
        batch = input_ids.shape[0]
        # Broadcast the pooled vector to every position for interface parity.
        tiled = F.reshape(pooled, (batch, 1, self.hidden_dim))
        return F.add(tiled, Tensor(np.zeros((batch, self.max_len, self.hidden_dim), dtype=embedded.dtype)))

    def loss(self, batch: Batch) -> Tensor:
        """BPR: ``-log sigmoid(score(pos) - score(neg))`` with 1 negative."""
        user = self.user_representation(batch.input_ids)
        pos_emb = self.item_embedding(batch.targets)
        negatives = np.empty(batch.targets.shape, dtype=np.int64)

        def draw():
            negatives[...] = self._neg_rng.integers(
                1, self.num_items + 1, size=negatives.shape
            )
            # Resample collisions with the positive once (close enough to exact).
            collision = negatives == batch.targets
            if collision.any():
                negatives[collision] = (negatives[collision] % self.num_items) + 1

        draw()
        # Static-graph replay: redraw negatives per step into the same
        # index array the captured embedding lookup reads.
        record_host(draw, "bprmf.negatives")
        neg_emb = self.item_embedding(negatives)
        pos_score = F.sum(F.mul(user, pos_emb), axis=1)
        neg_score = F.sum(F.mul(user, neg_emb), axis=1)
        margin = F.sub(pos_score, neg_score)
        return F.neg(F.mean(F.logsigmoid(margin)))
