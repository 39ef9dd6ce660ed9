"""Eval-only item-score table snapshots, optionally half precision.

The prediction layer scores a user vector against every item embedding
(Eq. 31).  At serving time that GEMM is DRAM-bound on streaming the
``(d, V+1)`` table, and at ``V = 10^6`` the float32 table alone is
hundreds of MB — so the serving path keeps a **float16 snapshot** of
:meth:`~repro.core.encoder.SequentialEncoderBase.score_context`:

- half the resident memory and half the bytes streamed per scoring
  pass at ranking-irrelevant precision loss (ranking tolerates far
  lower precision than training; the acceptance bench pins HR@10 /
  NDCG@10 within 0.01 of the float32 full-sort reference);
- **training dtype untouched** — the snapshot is a cast *copy*; the
  model's parameters, optimizer state and training math never see
  float16.

numpy has no BLAS kernel for float16, so scoring casts one
``(d, block)`` column block at a time into a reused float32 scratch
buffer and runs the GEMM in float32 (accumulation therefore happens in
float32, not half).  The block cast pairs with the blocked top-k
(:mod:`repro.evaluation.topk`): one block is cast, scored, folded into
the candidate pool, then its scratch is reused — the full ``(B, V)``
score matrix never exists.

**Staleness contract**: a snapshot is valid only while
``model.inference_version()`` is unchanged.  :meth:`ItemTable.is_stale`
detects any parameter mutation that went through the optimizer /
``load_state_dict`` / ``Module.to`` (they bump the global parameter
version); the serving service checks it per batch and calls
:meth:`refresh`.  Hand-edited parameter buffers bypass the version
counter — see ``SequentialEncoderBase.inference_version``.

Thread safety: none here (the scratch buffer is shared state); the
owning service serializes scoring under its lock.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["ItemTable"]

#: accepted ``dtype`` spellings -> numpy dtypes (``"model"`` keeps the
#: model's own compute dtype, i.e. a plain snapshot with no cast)
_DTYPES = {
    "float16": np.float16,
    "float32": np.float32,
    "float64": np.float64,
}


class ItemTable:
    """A scoring snapshot of the model's item-embedding table.

    Parameters
    ----------
    model:
        Any model exposing ``score_context()`` and
        ``inference_version()`` (every
        :class:`~repro.core.encoder.SequentialEncoderBase` subclass).
    dtype:
        ``"float16"`` (the serving default), ``"float32"``,
        ``"float64"``, or ``"model"`` to keep the model dtype.
    block_size:
        Column-block width for :meth:`score_block`'s cast scratch.
    """

    def __init__(self, model, dtype: str = "float16", block_size: int = 8192) -> None:
        if dtype != "model" and dtype not in _DTYPES:
            raise ValueError(
                f"unknown table dtype {dtype!r}; expected one of "
                f"{sorted(_DTYPES)} or 'model'"
            )
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        self.dtype_name = dtype
        self.block_size = int(block_size)
        self._scratch: Optional[np.ndarray] = None
        self.table: Optional[np.ndarray] = None
        self.version = -1
        self.refreshes = 0
        self.refresh(model)

    # ------------------------------------------------------------------
    @property
    def num_columns(self) -> int:
        """Catalog columns scored (``V + 1``; column 0 is padding)."""
        return self.table.shape[1]

    @property
    def compute_dtype(self) -> np.dtype:
        """Dtype scores come out in (float32 when the table is float16)."""
        if self.table.dtype == np.float16:
            return np.dtype(np.float32)
        return self.table.dtype

    def refresh(self, model) -> None:
        """Re-snapshot the table from the model's current parameters."""
        context = model.score_context()  # (d, V+1), contiguous, model dtype
        if self.dtype_name == "model":
            self.table = context
        else:
            self.table = np.ascontiguousarray(context.astype(_DTYPES[self.dtype_name]))
        self.version = model.inference_version()
        self.refreshes += 1

    def rebuilt(self, model) -> "ItemTable":
        """A fresh snapshot as a **new** table (double-buffered refresh).

        :meth:`refresh` mutates this table in place, which is fine when
        the caller owns the serving lock for the duration — but a full
        re-snapshot of a 10^6-item catalog is exactly the work the
        serving lock must *not* be held across.  ``rebuilt`` builds a
        complete replacement off to the side (same dtype/blocking
        config, cumulative ``refreshes`` counter carried forward) so
        the owner can do the expensive build lock-free and swap the
        reference in O(1) under the lock.  The old table stays fully
        serviceable until the swap — a failed build leaves it live.
        """
        new = ItemTable(model, dtype=self.dtype_name, block_size=self.block_size)
        new.refreshes += self.refreshes
        return new

    def is_stale(self, model) -> bool:
        """Whether parameters changed since this snapshot was taken."""
        return model.inference_version() != self.version

    # ------------------------------------------------------------------
    def prepare_users(self, users: np.ndarray) -> np.ndarray:
        """Cast a ``(B, d)`` user-vector stack to the scoring dtype."""
        return np.ascontiguousarray(users, dtype=self.compute_dtype)

    def score_block(self, users: np.ndarray, start: int, stop: int) -> np.ndarray:
        """Scores of ``users`` against table columns ``[start, stop)``.

        ``users`` must come from :meth:`prepare_users`.  Returns a
        freshly written ``(B, stop-start)`` array the caller owns (the
        blocked top-k masks seen items into it in place).  For a
        float16 table the column block is cast into a reused float32
        scratch first, so the GEMM runs on BLAS and accumulates in
        float32.
        """
        stop = min(stop, self.num_columns)
        block = self.table[:, start:stop]
        if self.table.dtype == np.float16:
            width = stop - start
            if self._scratch is None or self._scratch.shape[1] < width:
                self._scratch = np.empty(
                    (self.table.shape[0], max(width, self.block_size)), np.float32
                )
            cast = self._scratch[:, :width]
            np.copyto(cast, block, casting="safe")
            block = cast
        return users @ block

    def score_all(self, users: np.ndarray) -> np.ndarray:
        """Full ``(B, V+1)`` scores in one GEMM (the naive baseline path).

        For a float16 table this materializes a full float32 copy of
        the table per call — deliberately so: it is the "no blocking"
        reference arm of the serving A/B benchmark.
        """
        if self.table.dtype == np.float16:
            return users @ self.table.astype(np.float32)
        return users @ self.table

    def nbytes(self) -> int:
        return int(self.table.nbytes)

    def __repr__(self) -> str:
        return (
            f"ItemTable(shape={self.table.shape}, dtype={self.table.dtype}, "
            f"version={self.version}, refreshes={self.refreshes})"
        )
