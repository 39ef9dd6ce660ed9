"""SASRec baseline (Kang & McAuley, ICDM 2018).

Causal multi-head self-attention encoder; the strongest pure
time-domain baseline in the paper.  Trained under the unified
cross-entropy-on-next-item protocol so all Table-II models share the
same objective shape.

Runs on the fused attention fast path (single Q/K/V GEMM, cached
block masks — :mod:`repro.nn.attention`), and its user vector runs the
last block on the last query only (:meth:`SASRec.user_representation`);
this model is one of the two step-time configs tracked in
``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import functional as F
from repro.autograd.graph import record_host
from repro.autograd.tensor import Tensor
from repro.baselines.transformer import TransformerEncoder
from repro.core.encoder import SequentialEncoderBase

__all__ = ["SASRec"]


class SASRec(SequentialEncoderBase):
    def __init__(
        self,
        num_items: int,
        max_len: int = 50,
        hidden_dim: int = 64,
        num_layers: int = 2,
        num_heads: int = 2,
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
            embed_dropout=embed_dropout,
            noise_eps=noise_eps,
            seed=seed,
            dtype=dtype,
        )
        self.encoder = TransformerEncoder(
            hidden_dim,
            num_layers,
            num_heads=num_heads,
            dropout=hidden_dropout,
            causal=True,
            rng=np.random.default_rng(seed + 8),
            dtype=self.dtype,
        )

    def encode_states(self, input_ids: np.ndarray) -> Tensor:
        return self._encode(input_ids, last_only=False)

    def user_representation(self, input_ids: np.ndarray) -> Tensor:
        """``h_t^L`` (Eq. 31) without the rest of the last block's output.

        Blocks ``0..L-2`` run on every position; the last block runs
        attention with the last query only and its position-wise tail on
        position ``N-1`` (:meth:`TransformerBlock.forward_last`).  Same
        masks and generator streams as ``encode_states(x)[:, -1]``, same
        value to float reassociation.  DuoRec, CL4SRec, CoSeRec,
        ContrastVAE and S3Rec inherit it.
        """
        return F.getitem(self._encode(input_ids, last_only=True), (slice(None), -1))

    def _encode(self, input_ids: np.ndarray, last_only: bool) -> Tensor:
        ids = np.asarray(input_ids)
        padding = ids == 0
        # Static-graph replay: ``ids`` aliases the executor's persistent
        # input buffer, so the padding mask is refreshed in place for the
        # downstream block-mask host entry.
        record_host(lambda: np.equal(ids, 0, out=padding), "sasrec.padding")
        *body, last = self.encoder.blocks
        hidden = self.embed(input_ids)
        for block in body:
            hidden = block(self.inject_noise(hidden), key_padding_mask=padding)
        run_last = last.forward_last if last_only else last
        return run_last(self.inject_noise(hidden), key_padding_mask=padding)
