"""Sequence-level data augmentations for contrastive baselines.

CL4SRec (crop / mask / reorder) and CoSeRec (correlation-informed
substitute / insert) operate on raw item-id lists *before* padding.
SLIME4Rec itself uses model-level augmentation (dropout views) and does
not need these, but the baselines do.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence

import numpy as np

__all__ = [
    "crop_sequence",
    "mask_sequence",
    "reorder_sequence",
    "substitute_sequence",
    "insert_sequence",
    "ItemCorrelation",
]


def crop_sequence(seq: Sequence[int], ratio: float, rng: np.random.Generator) -> List[int]:
    """Keep a random contiguous span of length ``ceil(ratio * len)``."""
    seq = list(seq)
    if len(seq) < 2:
        return seq
    span = max(1, int(np.ceil(ratio * len(seq))))
    start = int(rng.integers(0, len(seq) - span + 1))
    return seq[start : start + span]


def mask_sequence(
    seq: Sequence[int], ratio: float, mask_id: int, rng: np.random.Generator
) -> List[int]:
    """Replace a random ``ratio`` of positions with ``mask_id``."""
    seq = list(seq)
    if not seq:
        return seq
    count = max(1, int(np.floor(ratio * len(seq)))) if ratio > 0 else 0
    positions = rng.choice(len(seq), size=min(count, len(seq)), replace=False)
    for pos in positions:
        seq[pos] = mask_id
    return seq


def reorder_sequence(seq: Sequence[int], ratio: float, rng: np.random.Generator) -> List[int]:
    """Shuffle a random contiguous span of length ``ratio * len``."""
    seq = list(seq)
    if len(seq) < 2:
        return seq
    span = max(1, int(np.ceil(ratio * len(seq))))
    start = int(rng.integers(0, len(seq) - span + 1))
    segment = seq[start : start + span]
    rng.shuffle(segment)
    return seq[:start] + segment + seq[start + span :]


class ItemCorrelation:
    """Item-to-item co-occurrence statistics for CoSeRec augmentations.

    Correlation is measured by within-window co-occurrence counts over
    the training sequences; ``most_correlated`` returns the top
    neighbour of an item (or the item itself when unseen).
    """

    def __init__(self, train_sequences: Sequence[Sequence[int]], window: int = 3) -> None:
        counts: Dict[int, Dict[int, int]] = defaultdict(lambda: defaultdict(int))
        for seq in train_sequences:
            seq = list(seq)
            for i, a in enumerate(seq):
                for j in range(max(0, i - window), min(len(seq), i + window + 1)):
                    if i == j:
                        continue
                    counts[a][seq[j]] += 1
        self._top: Dict[int, List[int]] = {}
        for item, neigh in counts.items():
            ranked = sorted(neigh.items(), key=lambda kv: (-kv[1], kv[0]))
            self._top[item] = [n for n, _ in ranked[:10]]

    def most_correlated(self, item: int, rng: np.random.Generator) -> int:
        options = self._top.get(item)
        if not options:
            return item
        return int(options[int(rng.integers(len(options)))])


def substitute_sequence(
    seq: Sequence[int], ratio: float, corr: ItemCorrelation, rng: np.random.Generator
) -> List[int]:
    """Replace ``ratio`` of the items with highly-correlated neighbours."""
    seq = list(seq)
    if not seq:
        return seq
    count = max(1, int(np.floor(ratio * len(seq))))
    positions = rng.choice(len(seq), size=min(count, len(seq)), replace=False)
    for pos in positions:
        seq[pos] = corr.most_correlated(seq[pos], rng)
    return seq


def insert_sequence(
    seq: Sequence[int], ratio: float, corr: ItemCorrelation, rng: np.random.Generator
) -> List[int]:
    """Insert correlated items after ``ratio`` of the positions."""
    seq = list(seq)
    if not seq:
        return seq
    count = max(1, int(np.floor(ratio * len(seq))))
    positions = sorted(
        rng.choice(len(seq), size=min(count, len(seq)), replace=False), reverse=True
    )
    for pos in positions:
        seq.insert(pos + 1, corr.most_correlated(seq[pos], rng))
    return seq
