"""Top-k item selection shared by evaluation and the serving path.

Production ranking never needs a full sort of the catalog: a request
wants the ``k`` best items out of ``V`` (``k ~ 10``, ``V ~ 10^5-10^6``),
and ``np.argsort`` over every row is ``O(V log V)`` per user plus a
``(B, V)`` int64 index materialization.  This module provides:

- :func:`full_sort_topk` — the *reference* implementation: one stable
  full argsort per row.  Exact contract, used as the ground truth in
  property tests and as the "naive" serving baseline.
- :class:`TopKAccumulator` — the production implementation, for callers
  that *produce* scores block-by-block (the serving path computes each
  block's scores from a cached half-precision item table and never
  materializes the full ``(B, V)`` matrix at all).  It keeps a per-row
  candidate pool of width ``k`` via ``np.argpartition`` (``O(V)``
  total, never a full sort) and only sorts the final ``k``-wide pool.

**Ordering contract** (all implementations, pinned by property tests):
items are returned by descending score; equal scores break ties by
ascending item id.  This matches ``np.argsort(-scores, kind="stable")``
and makes every path bit-for-bit comparable.

**Masking contract**: excluded columns (the padding item 0 and,
optionally, per-row "seen" item sets) never surface in the result.
Rows with fewer than ``k`` admissible items pad the tail of the result
with id ``-1`` / score ``-inf``.  Inputs are never written to — masking
happens on block copies — so callers may pass views of cached state.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

__all__ = ["TopKResult", "TopKAccumulator", "full_sort_topk"]


class TopKResult(NamedTuple):
    """Ranked recommendation lists: ``ids[b, 0]`` is row ``b``'s best item.

    ``ids`` is ``(B, k')`` int64, ``scores`` the matching score values in
    the scoring dtype; ``k' = min(k, candidate_count)``.  Excluded /
    inadmissible tail slots hold id ``-1`` and score ``-inf``.

    ``degraded`` is ``False`` for every model-path ranking; the serving
    fallback ranker (:mod:`repro.serving.fallback`) sets it ``True`` so
    callers can tell a popularity answer from a personalized one.  The
    masking contract is identical either way.
    """

    ids: np.ndarray
    scores: np.ndarray
    degraded: bool = False


def _mask_block(
    block: np.ndarray,
    start: int,
    stop: int,
    exclude: Optional[Sequence[np.ndarray]],
    exclude_padding: bool,
    writable: bool,
) -> np.ndarray:
    """Apply column-0 and per-row seen-item masks to one score block.

    Copies the block first unless the caller owns it (``writable``);
    returns it untouched when nothing in ``[start, stop)`` is masked.
    """
    needs_padding = exclude_padding and start == 0
    rows_hit = []
    if exclude is not None:
        for row, ids in enumerate(exclude):
            if ids is None or len(ids) == 0:
                rows_hit.append(None)
                continue
            ids = np.asarray(ids, dtype=np.int64)
            local = ids[(ids >= start) & (ids < stop)] - start
            rows_hit.append(local if local.size else None)
        if all(h is None for h in rows_hit):
            rows_hit = []
    if not needs_padding and not rows_hit:
        return block
    if not writable:
        block = block.copy()
    neg_inf = -np.inf
    if needs_padding:
        block[:, 0] = neg_inf
    for row, local in enumerate(rows_hit):
        if local is not None:
            block[row, local] = neg_inf
    return block


def _select_topk(scores: np.ndarray, ids: np.ndarray, k: int) -> tuple:
    """Exact unordered top-k of each row by (score desc, id asc).

    ``np.argpartition`` gives the k best scores per row with arbitrary
    tie resolution at the boundary; rows where equal-score candidates
    straddle that boundary are repaired to keep the *smallest ids*
    among the threshold ties, so the selected set always matches the
    stable full-sort reference.
    """
    n = scores.shape[1]
    if k >= n:
        return scores, ids
    part = np.argpartition(scores, n - k, axis=1)[:, n - k :]
    sel_scores = np.take_along_axis(scores, part, axis=1)
    sel_ids = np.take_along_axis(ids, part, axis=1)
    thr = sel_scores.min(axis=1)
    # Boundary-tie repair: a row needs it when candidates tied with the
    # k-th score exist outside the selection (the partition then chose
    # an arbitrary — possibly id-wise wrong — subset of the ties).
    total_ties = (scores == thr[:, None]).sum(axis=1)
    kept_ties = (sel_scores == thr[:, None]).sum(axis=1)
    for row in np.flatnonzero(total_ties > kept_ties):
        row_scores = scores[row]
        greater = np.flatnonzero(row_scores > thr[row])
        tied = np.flatnonzero(row_scores == thr[row])
        need = k - greater.size
        tied = tied[np.argsort(ids[row, tied], kind="stable")][:need]
        chosen = np.concatenate([greater, tied])
        sel_scores[row] = row_scores[chosen]
        sel_ids[row] = ids[row, chosen]
    return sel_scores, sel_ids


def _order_pool(pool_scores: np.ndarray, pool_ids: np.ndarray) -> TopKResult:
    """Sort a (B, k) candidate pool by (score desc, id asc); pad misses."""
    order = np.lexsort((pool_ids, -pool_scores), axis=-1)
    scores = np.take_along_axis(pool_scores, order, axis=1)
    ids = np.take_along_axis(pool_ids, order, axis=1).astype(np.int64, copy=False)
    dead = np.isneginf(scores)
    if dead.any():
        ids = np.where(dead, -1, ids)
    return TopKResult(ids=ids, scores=scores)


class TopKAccumulator:
    """Streaming top-k over score blocks that arrive column-range by range.

    Usage: construct with the batch size and ``k``, feed each scored
    block with :meth:`update`, read the ranked result with
    :meth:`result`.  Blocks may arrive in any order and cover any
    column ranges; ids are global column indices (``start`` offsets the
    block).  The accumulator keeps one ``(B, <=k)`` score/id pool and
    merges each block with a single ``argpartition`` — memory is
    ``O(B * (k + block))``, work is ``O(B * V)`` overall.

    ``update`` treats the incoming block as read-only unless
    ``writable=True`` (the serving path passes freshly GEMM'd buffers
    it owns, avoiding a copy when masking).
    """

    def __init__(self, batch: int, k: int) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.batch = int(batch)
        self.k = int(k)
        self._pool_scores: Optional[np.ndarray] = None
        self._pool_ids: Optional[np.ndarray] = None

    def update(
        self,
        start: int,
        block: np.ndarray,
        exclude: Optional[Sequence[np.ndarray]] = None,
        exclude_padding: bool = True,
        writable: bool = False,
    ) -> None:
        block = np.asarray(block)
        if block.ndim != 2 or block.shape[0] != self.batch:
            raise ValueError(
                f"expected a ({self.batch}, block) score matrix, got {block.shape}"
            )
        stop = start + block.shape[1]
        block = _mask_block(block, start, stop, exclude, exclude_padding, writable)
        ids = np.broadcast_to(np.arange(start, stop, dtype=np.int64), block.shape)
        if self._pool_scores is None:
            merged_scores, merged_ids = block, ids
        else:
            merged_scores = np.concatenate([self._pool_scores, block], axis=1)
            merged_ids = np.concatenate([self._pool_ids, ids], axis=1)
        sel_scores, sel_ids = _select_topk(merged_scores, merged_ids, self.k)
        # Own the pool memory: the merged arrays alias the caller's block
        # when it fits entirely (first update with block <= k columns).
        self._pool_scores = np.array(sel_scores, copy=True)
        self._pool_ids = np.array(sel_ids, copy=True)

    def result(self) -> TopKResult:
        """Ranked ``TopKResult`` over everything seen so far."""
        if self._pool_scores is None:
            raise ValueError("TopKAccumulator.result() before any update()")
        return _order_pool(self._pool_scores, self._pool_ids)


def full_sort_topk(
    scores: np.ndarray,
    k: int,
    exclude: Optional[Sequence[np.ndarray]] = None,
    exclude_padding: bool = True,
) -> TopKResult:
    """Reference top-k: one stable full argsort per row.

    Same contract as :class:`TopKAccumulator` (the property tests pin
    the two equal); ``O(B * V log V)``, so production paths should
    prefer the accumulator.  Rows are masked and sorted one at a time, so
    the scratch is one ``(V,)`` row and its index, never a ``(B, V)``
    masked copy plus a ``(B, V)`` int64 argsort.  ``scores`` is never
    written to.
    """
    scores = np.asarray(scores)
    if scores.ndim != 2:
        raise ValueError(f"expected (B, V) scores, got shape {scores.shape}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    batch, width = scores.shape
    k = min(k, width)
    ids = np.empty((batch, k), np.int64)
    top_scores = np.empty((batch, k), scores.dtype)
    for row in range(batch):
        masked = _mask_block(
            scores[row : row + 1], 0, width,
            None if exclude is None else exclude[row : row + 1],
            exclude_padding, writable=False,
        )[0]
        order = np.argsort(-masked, kind="stable")[:k]
        ids[row] = order
        top_scores[row] = masked[order]
    dead = np.isneginf(top_scores)
    if dead.any():
        ids = np.where(dead, -1, ids)
    return TopKResult(ids=ids, scores=top_scores)
