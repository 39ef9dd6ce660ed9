"""Ranking metrics.

The paper evaluates with HR@K and NDCG@K over the *full* item catalog
(no negative sampling), following Krichene & Rendle's guidance on
unbiased sampled metrics.  With a single ground-truth item per user:

- ``HR@K`` is 1 when the target ranks in the top K, else 0;
- ``NDCG@K`` is ``1 / log2(rank + 2)`` when the target ranks in the
  top K (0-based rank), else 0 — the ideal DCG is 1 for a single
  relevant item.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["rank_of_target", "hit_ratio_at_k", "ndcg_at_k", "mrr", "mrr_at_k"]


def _rank_rows(scores: np.ndarray, targets: np.ndarray) -> np.ndarray:
    rows = np.arange(scores.shape[0])
    target_scores = scores[rows, targets][:, None]
    higher = (scores > target_scores).sum(axis=1)
    equal_before = ((scores == target_scores) & (np.arange(scores.shape[1])[None, :] < targets[:, None])).sum(axis=1)
    return higher + equal_before


def rank_of_target(
    scores: np.ndarray,
    targets: np.ndarray,
    exclude_padding: bool = False,
    chunk_size: int | None = None,
) -> np.ndarray:
    """0-based rank of each row's target item under descending scores.

    Ties are counted pessimistically: items with a strictly higher
    score *and* equal-score items with a smaller id rank ahead, giving
    a deterministic result.

    Parameters
    ----------
    scores:
        ``(B, V)`` score matrix.  Never written to — padding exclusion
        works by ranking over a column-sliced view, so callers may pass
        views of shared or cached state safely.
    targets:
        ``(B,)`` integer target ids.
    exclude_padding:
        When True, column 0 (the padding item) is excluded from the
        candidate set entirely — equivalent to the classic
        ``scores[:, 0] = -inf`` masking, without mutating ``scores``.
    chunk_size:
        Optional row-chunk size bounding the ``(B, V)`` boolean
        temporaries this computation allocates; ranks are identical for
        any chunking.
    """
    scores = np.asarray(scores)
    targets = np.asarray(targets)
    if exclude_padding:
        if np.any(targets <= 0):
            raise ValueError("exclude_padding requires all targets to be real items (id >= 1)")
        scores = scores[:, 1:]
        targets = targets - 1
    if chunk_size is None or scores.shape[0] <= chunk_size:
        return _rank_rows(scores, targets)
    return np.concatenate(
        [
            _rank_rows(scores[start : start + chunk_size], targets[start : start + chunk_size])
            for start in range(0, scores.shape[0], chunk_size)
        ]
    )


def hit_ratio_at_k(ranks: Sequence[int], k: int) -> float:
    """Fraction of targets ranked within the top ``k``."""
    ranks = np.asarray(ranks)
    if ranks.size == 0:
        return 0.0
    return float((ranks < k).mean())


def ndcg_at_k(ranks: Sequence[int], k: int) -> float:
    """Mean NDCG@k for single-relevant-item ranking."""
    ranks = np.asarray(ranks)
    if ranks.size == 0:
        return 0.0
    gains = np.where(ranks < k, 1.0 / np.log2(ranks + 2.0), 0.0)
    return float(gains.mean())


def mrr(ranks: Sequence[int]) -> float:
    """Mean reciprocal rank (no cutoff)."""
    ranks = np.asarray(ranks)
    if ranks.size == 0:
        return 0.0
    return float((1.0 / (ranks + 1.0)).mean())


def mrr_at_k(ranks: Sequence[int], k: int) -> float:
    """MRR with reciprocal ranks beyond the top ``k`` truncated to 0."""
    ranks = np.asarray(ranks)
    if ranks.size == 0:
        return 0.0
    return float(np.where(ranks < k, 1.0 / (ranks + 1.0), 0.0).mean())
