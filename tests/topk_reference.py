"""Test oracle for the streaming top-k: the whole-matrix blocked walk.

:func:`blocked_topk` feeds a materialized ``(B, V)`` score matrix
through :class:`~repro.evaluation.topk.TopKAccumulator` one column block
at a time.  The serving path scores blocks on the fly and never holds
the full matrix, so it drives the accumulator itself; this walk exists
to pin the accumulator against ``full_sort_topk`` over many block
widths.
"""

from typing import Optional, Sequence

import numpy as np

from repro.evaluation.topk import TopKAccumulator, TopKResult


def blocked_topk(
    scores: np.ndarray,
    k: int,
    block_size: int = 8192,
    exclude: Optional[Sequence[np.ndarray]] = None,
    exclude_padding: bool = True,
) -> TopKResult:
    """Top-k of each row of ``(B, V)`` ``scores`` without a full sort.

    Walks the columns in blocks of ``block_size`` through a
    :class:`TopKAccumulator`; see :mod:`repro.evaluation.topk` for the
    ordering and masking contracts.  ``scores`` is never written to.
    """
    scores = np.asarray(scores)
    if scores.ndim != 2:
        raise ValueError(f"expected (B, V) scores, got shape {scores.shape}")
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    acc = TopKAccumulator(scores.shape[0], k)
    for start in range(0, scores.shape[1], block_size):
        acc.update(
            start,
            scores[:, start : start + block_size],
            exclude=exclude,
            exclude_padding=exclude_padding,
        )
    return acc.result()
