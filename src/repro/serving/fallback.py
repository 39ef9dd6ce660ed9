"""Degraded-mode ranking: popularity top-k with no model in the path.

When the model path fails — an exception mid-encode, a table stuck
mid-refresh, a collector past its restart budget — the serving layer
must still answer, and the industry-standard degraded answer is
**popularity ranking**: the globally most-interacted items the user has
not already seen.  It is not personalized, but it is never wrong in the
ways that matter operationally: the masking contract is exact, the
result shape is the model path's shape, and nothing in it can raise for
model-side reasons (no encode, no GEMM, no parameter state).

:class:`PopularityRanker` is that answer:

- **Counts come from the request stream itself.**  The owning
  :class:`~repro.serving.service.RecommenderService` feeds every
  ``observe`` / ``observe_history`` event into :meth:`observe` /
  :meth:`observe_many` (an O(1) int increment per event, always on —
  the ranker is warm *before* the incident that needs it).  Counts are
  cumulative traffic statistics: re-seeding a user via
  ``observe_history`` counts again, evicted sessions keep their
  contribution.  That coarseness is fine for a fallback.
- **Bounded ranking cost.**  The popularity order (count descending,
  ties by ascending item id — the same tie rule as
  :mod:`repro.evaluation.topk`) is a cached lexsort, recomputed lazily
  only after ``refresh_every`` new events have accumulated, so a
  degraded request costs an O(V) masked walk of a precomputed order,
  not an O(V log V) sort per request.  Between rebuilds the *order* may
  lag the newest events by up to ``refresh_every`` observations
  (documented staleness; call :meth:`rebuild` to force freshness).
- **Exact masking, always.**  Exclusion (the caller's seen-item set)
  is applied at query time against the current order, so a masked id
  can never surface no matter how stale the cached order is; the
  padding id 0 never appears by construction (the order only contains
  ``1..num_items``).  Rows with fewer than ``k`` admissible items pad
  with id ``-1`` / score ``-inf``, exactly like the model path.

Results come back as :class:`~repro.evaluation.topk.TopKResult` with
``degraded=True`` and the item's popularity count (as float32) in the
score slot — same shape, honest provenance.

Thread safety: none here; the owning service serializes access under
its lock, like the session cache and item table.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.evaluation.topk import TopKResult

__all__ = ["PopularityRanker"]


class PopularityRanker:
    """Seen-item-masked popularity top-k over ``1..num_items``.

    Parameters
    ----------
    num_items:
        Catalog size; observed ids must lie in ``1..num_items``.
    refresh_every:
        Rebuild the cached popularity order once at least this many new
        events have accumulated since the last build (staleness bound;
        1 keeps the order always fresh at O(V log V) per dirtying
        event's next query).
    """

    def __init__(self, num_items: int, refresh_every: int = 64) -> None:
        if num_items < 1:
            raise ValueError(f"num_items must be >= 1, got {num_items}")
        if refresh_every < 1:
            raise ValueError(f"refresh_every must be >= 1, got {refresh_every}")
        self.num_items = int(num_items)
        self.refresh_every = int(refresh_every)
        #: lifetime interaction count per item id (slot 0 unused)
        self.counts = np.zeros(self.num_items + 1, dtype=np.int64)
        self._order: Optional[np.ndarray] = None
        self._stale_events = 0
        self.rebuilds = 0

    # ------------------------------------------------------------------
    # Event ingestion
    # ------------------------------------------------------------------
    def observe(self, item_id: int) -> None:
        """Count one interaction event; O(1)."""
        item_id = int(item_id)
        if not 1 <= item_id <= self.num_items:
            raise ValueError(
                f"item ids must be in 1..{self.num_items}, got {item_id}"
            )
        self.counts[item_id] += 1
        self._note_events(1)

    def observe_many(self, item_ids: Iterable[int]) -> None:
        """Count a batch of events (history seeding); vectorized."""
        ids = np.asarray(
            item_ids if isinstance(item_ids, np.ndarray) else list(item_ids),
            dtype=np.int64,
        )
        if ids.size == 0:
            return
        if ids.min() < 1 or ids.max() > self.num_items:
            raise ValueError(
                f"item ids must be in 1..{self.num_items}, "
                f"got range [{ids.min()}, {ids.max()}]"
            )
        self.counts += np.bincount(ids, minlength=self.counts.size)
        self._note_events(int(ids.size))

    def _note_events(self, n: int) -> None:
        self._stale_events += n
        if self._order is not None and self._stale_events >= self.refresh_every:
            self._order = None  # recomputed lazily on the next query

    # ------------------------------------------------------------------
    # Ranking
    # ------------------------------------------------------------------
    def rebuild(self) -> None:
        """Recompute the popularity order (count desc, ties by id asc)."""
        ids = np.arange(1, self.num_items + 1, dtype=np.int64)
        self._order = ids[np.lexsort((ids, -self.counts[1:]))]
        self._stale_events = 0
        self.rebuilds += 1

    def topk(self, k: int, exclude: Optional[np.ndarray] = None) -> TopKResult:
        """Most popular ``k`` admissible items as a ``(1, k)`` result.

        ``exclude`` is a (sorted or not) array of item ids that must
        not surface — the service passes the session's ``seen()`` set.
        Masking is applied against the *current* order at query time,
        so it is exact even when the cached order is stale.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if self._order is None:
            self.rebuild()
        order = self._order
        if exclude is not None and len(exclude):
            keep = np.isin(order, np.asarray(exclude, dtype=np.int64), invert=True)
            chosen = order[keep][:k]
        else:
            chosen = order[:k]
        ids = np.full(k, -1, dtype=np.int64)
        scores = np.full(k, -np.inf, dtype=np.float32)
        ids[: chosen.size] = chosen
        scores[: chosen.size] = self.counts[chosen].astype(np.float32)
        return TopKResult(ids=ids[None, :], scores=scores[None, :], degraded=True)

    def __repr__(self) -> str:
        return (
            f"PopularityRanker(num_items={self.num_items}, "
            f"events={int(self.counts.sum())}, rebuilds={self.rebuilds})"
        )
