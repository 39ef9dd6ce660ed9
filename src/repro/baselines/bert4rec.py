"""BERT4Rec baseline (Sun et al., CIKM 2019).

Bidirectional self-attention trained with the Cloze (masked item)
objective: a random fraction of positions is replaced by a ``[mask]``
token and the model predicts the original items.  At inference the
history is shifted left and a ``[mask]`` appended at the final position
whose hidden state scores the next item; :meth:`BERT4Rec.user_representation`
does that shift, so evaluation and serving score the same vector.

The bidirectional encoder shares the fused attention fast path
(:mod:`repro.nn.attention`): same single Q/K/V GEMM, with the causal
mask disabled and the padding-key block cached per sequence length.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import functional as F
from repro.autograd.graph import record_host
from repro.autograd.tensor import Tensor
from repro.baselines.transformer import TransformerEncoder
from repro.core.encoder import SequentialEncoderBase
from repro.data.batching import Batch

__all__ = ["BERT4Rec"]

_IGNORE = -100  # positions that contribute no loss


class BERT4Rec(SequentialEncoderBase):
    def __init__(
        self,
        num_items: int,
        max_len: int = 50,
        hidden_dim: int = 64,
        num_layers: int = 2,
        num_heads: int = 2,
        mask_prob: float = 0.2,
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
            extra_tokens=1,  # the [mask] token
            seed=seed,
            dtype=dtype,
        )
        self.mask_token = num_items + 1
        self.mask_prob = mask_prob
        self._mask_rng = np.random.default_rng(seed + 9)
        self.encoder = TransformerEncoder(
            hidden_dim,
            num_layers,
            num_heads=num_heads,
            dropout=hidden_dropout,
            causal=False,
            rng=np.random.default_rng(seed + 10),
            dtype=self.dtype,
        )

    # ------------------------------------------------------------------
    def encode_states(self, input_ids: np.ndarray) -> Tensor:
        return self._encode(input_ids, last_only=False)

    def user_representation(self, input_ids: np.ndarray) -> Tensor:
        """The ``[mask]`` query's hidden state: the user vector that
        evaluation and serving both score with.

        The history is shifted left and ``[mask]`` appended at the last
        position; blocks ``0..L-2`` run on every position and the last
        block on the ``[mask]`` query only
        (:meth:`TransformerBlock.forward_last`), which is exact for
        bidirectional attention too.
        """
        inputs = np.asarray(input_ids, dtype=np.int64)
        shifted = np.roll(inputs, -1, axis=1)
        shifted[:, -1] = self.mask_token
        return F.getitem(self._encode(shifted, last_only=True), (slice(None), -1))

    def _encode(self, input_ids: np.ndarray, last_only: bool) -> Tensor:
        ids = np.asarray(input_ids)
        padding = ids == 0
        # Static-graph replay: refresh the padding mask in place from the
        # persistent input buffer (see sasrec.py for the same pattern).
        record_host(lambda: np.equal(ids, 0, out=padding), "bert4rec.padding")
        *body, last = self.encoder.blocks
        hidden = self.embed(input_ids)
        for block in body:
            hidden = block(hidden, key_padding_mask=padding)
        run_last = last.forward_last if last_only else last
        return run_last(hidden, key_padding_mask=padding)

    # ------------------------------------------------------------------
    def loss(self, batch: Batch) -> Tensor:
        """Cloze objective over randomly masked non-padding positions."""
        ids = np.asarray(batch.input_ids, dtype=np.int64)
        inputs = np.empty_like(ids)
        labels = np.empty_like(ids)
        corrupted = np.empty_like(ids)

        def prepare():
            # Fold the next-item target in as the final sequence element
            # so the Cloze task sees complete sequences (standard
            # practice); equals ``roll(ids, -1, axis=1)`` with the
            # rolled-around column overwritten by the targets.
            inputs[:, :-1] = ids[:, 1:]
            inputs[:, -1] = batch.targets
            labels.fill(_IGNORE)
            real = inputs != 0
            masked = real & (self._mask_rng.random(inputs.shape) < self.mask_prob)
            # Always mask the last position: it is exactly the next-item task.
            masked[:, -1] = True
            labels[masked] = inputs[masked]
            np.copyto(corrupted, inputs)
            corrupted[masked] = self.mask_token

        prepare()
        # Static-graph replay: the Cloze corruption (including the fresh
        # mask RNG draw) reruns as a host entry into the same arrays the
        # captured graph reads.
        record_host(prepare, "bert4rec.cloze")

        states = self.encode_states(corrupted)  # (B, N, d)
        return F.linear_cross_entropy(
            states, self._score_table(), labels, ignore_index=_IGNORE
        )
