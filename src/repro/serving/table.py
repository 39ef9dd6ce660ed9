"""Eval-only item-score table snapshots, stored as bfloat16 bits.

The prediction layer scores a user vector against every item embedding
(Eq. 31).  At serving time that GEMM is DRAM-bound on streaming the
``(d, V+1)`` table, and at ``V = 10^6`` the float32 table alone is
hundreds of MB — so the serving path keeps a **bfloat16 snapshot** of
:meth:`~repro.core.encoder.SequentialEncoderBase.score_context`:

- half the resident memory and half the bytes streamed per scoring
  pass of a float32 table, at ranking-irrelevant precision loss
  (ranking tolerates far lower precision than training; the fidelity
  test pins HR@10 / NDCG@10 within 0.01 of the model-dtype full-sort
  reference);
- float32's exponent range — bf16 is the upper half of a float32, so
  no finite embedding overflows or flushes to zero the way an IEEE
  half-precision cast can;
- **training dtype untouched** — the snapshot is a rounded *copy*; the
  model's parameters, optimizer state and training math never see it.

numpy has neither a bfloat16 dtype nor a half-precision BLAS, so the
snapshot is a ``uint16`` array of bf16 bits (:func:`to_bfloat16_bits`:
round to nearest even, one column block at a time).  Scoring widens
bf16 bits by shift: one ``(d, block)`` column block is shifted left by
16 bits into a reused float32 scratch buffer — exact, no float
conversion — and the GEMM runs on BLAS with float32 accumulation.  The
block widen pairs with the blocked top-k (:mod:`repro.evaluation.topk`):
one block is widened, scored, folded into the candidate pool, then its
scratch is reused — the full ``(B, V)`` score matrix never exists.

**Finite-only contract**: a snapshot never holds a non-finite entry.
The constructor raises ``ValueError`` (with the count) instead of
returning a table, so a diverged model cannot slip in as a silently
wrong table — the integer rounding would turn the float32 NaN
``0x7FFFFFFF`` into bf16 ``0x8000``, a plain ``-0.0``.

**Staleness contract**: a snapshot is immutable and valid only while
``model.inference_version()`` is unchanged.  :meth:`ItemTable.is_stale`
detects any parameter mutation that went through the optimizer /
``load_state_dict`` / ``Module.to`` (they bump the global parameter
version); the serving service checks it per batch and refreshes by
building a new snapshot and swapping its reference, so the old one
keeps serving until the swap and stays live when the build fails.
Hand-edited parameter buffers bypass the version counter — see
``SequentialEncoderBase.inference_version``.

Thread safety: none here (the scratch buffer is shared state); the
owning service serializes scoring under its lock.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["ItemTable", "to_bfloat16_bits", "widen_bfloat16"]


def to_bfloat16_bits(values: np.ndarray) -> np.ndarray:
    """bf16 bit patterns (``uint16``) of ``values``, rounded to nearest even.

    ``values`` is rounded to float32 first; the bf16 pattern is the
    upper half of each float32, rounded on the lower half with ties to
    even.  Finite values of magnitude ``>= 0x7F7F8000`` round to ±inf;
    subnormals and signed zeros keep their bits.  The rounding is an
    integer add, so it is only meaningful for finite input (NaN
    payloads may carry into the sign bit) — :class:`ItemTable` refuses
    to build from non-finite input.
    """
    bits = np.asarray(values, dtype=np.float32).view(np.uint32)
    return ((bits + (0x7FFF + ((bits >> 16) & 1))) >> 16).astype(np.uint16)


def widen_bfloat16(bits: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Exact float32 values of bf16 ``bits``: a 16-bit left shift.

    Writes into ``out`` (a float32 array of ``bits``' shape, any
    strides) when given, else allocates.
    """
    if out is None:
        out = np.empty(bits.shape, np.float32)
    np.left_shift(bits, 16, out=out.view(np.uint32), dtype=np.uint32)
    return out


def _count_nonfinite(values: np.ndarray) -> int:
    return int(values.size - np.count_nonzero(np.isfinite(values)))


class ItemTable:
    """An immutable bf16 scoring snapshot of the model's item embeddings.

    Parameters
    ----------
    model:
        Any model exposing ``score_context()`` and
        ``inference_version()`` (every
        :class:`~repro.core.encoder.SequentialEncoderBase` subclass).
    block_size:
        Column-block width of :meth:`score_block`'s widen scratch and of
        the set-up rounding.

    Raises ``ValueError`` naming the count of non-finite entries.
    """

    #: dtype user vectors are cast to and scores come out in
    compute_dtype = np.dtype(np.float32)

    def __init__(self, model, block_size: int = 8192) -> None:
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        context = model.score_context()  # (d, V+1), contiguous, model dtype
        # one column block at a time: no table-sized float32/uint32
        # temporaries (a float64 model rounds to float32 here)
        table = np.empty(context.shape, np.uint16)
        nonfinite = 0
        for start in range(0, context.shape[1], block_size):
            cols = slice(start, start + block_size)
            block = context[:, cols].astype(np.float32)
            nonfinite += int(block.size - np.count_nonzero(np.isfinite(block)))
            table[:, cols] = to_bfloat16_bits(block)
        if nonfinite:
            raise ValueError(f"item table has {nonfinite} non-finite entries")
        self.block_size = int(block_size)
        self.table = table
        self.version = model.inference_version()
        self._scratch: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @property
    def num_columns(self) -> int:
        """Catalog columns scored (``V + 1``; column 0 is padding)."""
        return self.table.shape[1]

    def is_stale(self, model) -> bool:
        """Whether parameters changed since this snapshot was taken."""
        return model.inference_version() != self.version

    # ------------------------------------------------------------------
    def prepare_users(self, users: np.ndarray) -> np.ndarray:
        """Cast a ``(B, d)`` user-vector stack to float32 for scoring."""
        return np.ascontiguousarray(users, dtype=self.compute_dtype)

    def score_block(self, users: np.ndarray, start: int, stop: int) -> np.ndarray:
        """Scores of ``users`` against table columns ``[start, stop)``.

        ``users`` must come from :meth:`prepare_users`.  Returns a
        freshly written ``(B, stop-start)`` array the caller owns (the
        blocked top-k masks seen items into it in place).  The bf16
        column block is widened into a reused float32 scratch first,
        so the GEMM runs on BLAS and accumulates in float32.
        """
        stop = min(stop, self.num_columns)
        width = stop - start
        if self._scratch is None or self._scratch.shape[1] < width:
            self._scratch = np.empty(
                (self.table.shape[0], max(width, self.block_size)), np.float32
            )
        block = widen_bfloat16(self.table[:, start:stop], out=self._scratch[:, :width])
        return users @ block

    def score_all(self, users: np.ndarray) -> np.ndarray:
        """Full ``(B, V+1)`` scores in one GEMM over the whole widened
        table (a full float32 copy per call): the unblocked scoring
        that answer checks re-rank through."""
        return users @ widen_bfloat16(self.table)

    def nbytes(self) -> int:
        return int(self.table.nbytes)

    def __repr__(self) -> str:
        return f"ItemTable(shape={self.table.shape}, version={self.version})"
