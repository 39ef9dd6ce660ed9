"""Dataset diagnostics beyond the Table I headline numbers.

Sequential-recommendation results are sensitive to properties Table I
does not show: how skewed item popularity is, how long the length tail
runs, how repetitive users are.  These reports make a dataset's
difficulty legible before any training happens.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

__all__ = ["PopularityReport", "popularity_report", "length_histogram", "repeat_ratio"]


@dataclass(frozen=True)
class PopularityReport:
    """Item-popularity skew statistics.

    Attributes
    ----------
    gini:
        Gini coefficient of the item interaction counts (0 = uniform,
        1 = one item absorbs everything).
    top_10pct_share:
        Fraction of all interactions landing on the most popular 10%
        of items (the "short head").
    coverage:
        Fraction of catalog items with at least one interaction.
    """

    gini: float
    top_10pct_share: float
    coverage: float


def _gini(counts: np.ndarray) -> float:
    if counts.size == 0 or counts.sum() == 0:
        return 0.0
    sorted_counts = np.sort(counts.astype(float))
    n = sorted_counts.size
    cum = np.cumsum(sorted_counts)
    # Standard formula: G = (n + 1 - 2 * sum(cum) / cum[-1]) / n
    return float((n + 1 - 2 * (cum / cum[-1]).sum()) / n)


def popularity_report(sequences: Sequence[Sequence[int]], num_items: int) -> PopularityReport:
    """Compute popularity-skew statistics for a preprocessed dataset.

    ``num_items`` is the catalog size; ids are assumed 1-based with 0
    reserved for padding (the repo-wide convention).
    """
    counter: Counter = Counter()
    for seq in sequences:
        counter.update(i for i in seq if i != 0)
    counts = np.zeros(num_items, dtype=np.int64)
    for item, count in counter.items():
        counts[item - 1] = count
    total = counts.sum()
    if total == 0:
        return PopularityReport(gini=0.0, top_10pct_share=0.0, coverage=0.0)
    head = max(1, num_items // 10)
    top_share = float(np.sort(counts)[::-1][:head].sum() / total)
    return PopularityReport(
        gini=_gini(counts),
        top_10pct_share=top_share,
        coverage=float((counts > 0).mean()),
    )


def length_histogram(
    sequences: Sequence[Sequence[int]], edges: Sequence[int] = (5, 10, 20, 50, 100)
) -> Dict[str, int]:
    """Bucketed histogram of sequence lengths.

    Returns ``{"<=5": n, "<=10": n, ..., ">100": n}`` — the shape that
    determines how much signal truncation at ``N`` destroys.
    """
    lengths = [len(s) for s in sequences]
    histogram: Dict[str, int] = {}
    previous = 0
    for edge in edges:
        histogram[f"<={edge}"] = sum(previous < l <= edge for l in lengths)
        previous = edge
    histogram[f">{edges[-1]}"] = sum(l > edges[-1] for l in lengths)
    return histogram


def repeat_ratio(sequences: Sequence[Sequence[int]]) -> float:
    """Fraction of interactions that revisit an already-seen item.

    High values mean strong periodic re-consumption — exactly the
    regime where frequency-domain models have something to find.
    """
    repeats = 0
    total = 0
    for seq in sequences:
        seen: set = set()
        for item in seq:
            total += 1
            if item in seen:
                repeats += 1
            seen.add(item)
    return repeats / total if total else 0.0
