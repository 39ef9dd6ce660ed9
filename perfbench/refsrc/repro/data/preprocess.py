"""Interaction-log preprocessing.

Implements the paper's protocol (Section IV-A/B):

- 5-core filtering: iteratively drop users and items with fewer than
  ``k`` interactions until a fixed point.
- chronological user sequences with contiguous id remapping
  (item id 0 is reserved for padding),
- leave-one-out split: last item -> test, second-to-last -> validation,
  the rest -> training,
- truncation to the most recent ``N`` items and left zero-padding
  (Eq. 1 of the paper).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

__all__ = [
    "apply_k_core",
    "build_user_sequences",
    "leave_one_out_split",
    "pad_or_truncate",
]

Interaction = Tuple[int, int, float]  # (user, item, timestamp)


def apply_k_core(interactions: Sequence[Interaction], k: int = 5) -> List[Interaction]:
    """Iteratively drop users/items with fewer than ``k`` interactions.

    Matches the "5-core settings" of the paper.  Runs to a fixed point:
    removing a sparse item can push a user below ``k`` and vice versa.
    """
    current = list(interactions)
    while True:
        user_counts = Counter(u for u, _, _ in current)
        item_counts = Counter(i for _, i, _ in current)
        kept = [
            (u, i, t)
            for u, i, t in current
            if user_counts[u] >= k and item_counts[i] >= k
        ]
        if len(kept) == len(current):
            return kept
        current = kept


def build_user_sequences(
    interactions: Sequence[Interaction],
) -> Tuple[List[List[int]], Dict[int, int], Dict[int, int]]:
    """Group interactions into per-user chronological item sequences.

    Returns ``(sequences, user_map, item_map)`` where ids are remapped
    contiguously: users to ``0..|U|-1`` and items to ``1..|V|`` (0 is
    the padding id).  Ties in timestamps are broken by input order,
    making the result deterministic.
    """
    per_user: Dict[int, List[Tuple[float, int, int]]] = defaultdict(list)
    for order, (user, item, ts) in enumerate(interactions):
        per_user[user].append((ts, order, item))

    user_map = {raw: idx for idx, raw in enumerate(sorted(per_user))}
    item_map: Dict[int, int] = {}
    sequences: List[List[int]] = [[] for _ in range(len(user_map))]
    for raw_user in sorted(per_user):
        events = sorted(per_user[raw_user])
        seq = []
        for _, _, raw_item in events:
            if raw_item not in item_map:
                item_map[raw_item] = len(item_map) + 1  # 0 reserved for padding
            seq.append(item_map[raw_item])
        sequences[user_map[raw_user]] = seq
    return sequences, user_map, item_map


def leave_one_out_split(
    sequences: Sequence[Sequence[int]],
) -> Tuple[List[List[int]], List[Tuple[List[int], int]], List[Tuple[List[int], int]]]:
    """Split each sequence per the leave-one-out protocol.

    Returns ``(train_sequences, valid, test)``:

    - ``train_sequences[u]`` is everything except the last two items,
    - ``valid[u] = (prefix_without_last_two, second_to_last_item)``,
    - ``test[u] = (prefix_without_last, last_item)``.

    Sequences shorter than 3 cannot be split and are skipped entirely
    (5-core preprocessing should prevent that in practice).
    """
    train: List[List[int]] = []
    valid: List[Tuple[List[int], int]] = []
    test: List[Tuple[List[int], int]] = []
    for seq in sequences:
        seq = list(seq)
        if len(seq) < 3:
            continue
        train.append(seq[:-2])
        valid.append((seq[:-2], seq[-2]))
        test.append((seq[:-1], seq[-1]))
    return train, valid, test


def pad_or_truncate(sequence: Sequence[int], max_len: int) -> np.ndarray:
    """Keep the most recent ``max_len`` items, left-padding with zeros.

    Implements Eq. 1: sequences longer than ``N`` are truncated to the
    final ``N`` elements; shorter sequences get zeros inserted on the
    left until the length reaches ``N``.
    """
    seq = list(sequence)[-max_len:]
    out = np.zeros(max_len, dtype=np.int64)
    if seq:
        out[max_len - len(seq):] = seq
    return out
