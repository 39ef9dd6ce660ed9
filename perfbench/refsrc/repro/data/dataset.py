"""SequenceDataset: the central container used by trainers and evaluators."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.data.preprocess import (
    apply_k_core,
    build_user_sequences,
    leave_one_out_split,
    pad_or_truncate,
)

__all__ = ["SequenceDataset", "DatasetStats"]


@dataclass(frozen=True)
class DatasetStats:
    """The Table I statistics of a preprocessed dataset."""

    name: str
    num_users: int
    num_items: int
    num_actions: int
    avg_length: float
    sparsity: float

    def as_row(self) -> str:
        return (
            f"{self.name:<12} users={self.num_users:<7} items={self.num_items:<7} "
            f"avg_len={self.avg_length:<6.1f} actions={self.num_actions:<8} "
            f"sparsity={self.sparsity * 100:.2f}%"
        )


class SequenceDataset:
    """Preprocessed sequential-recommendation dataset with LOO splits.

    Parameters
    ----------
    interactions:
        Iterable of ``(user, item, timestamp)`` triples (raw ids).
    name:
        Human-readable dataset name (for reports).
    max_len:
        Maximum sequence length ``N``; longer histories keep only the
        most recent ``N`` items (Eq. 1).
    k_core:
        Minimum interactions per user and item (paper uses 5).
    """

    def __init__(
        self,
        interactions: Sequence[Tuple[int, int, float]],
        name: str = "dataset",
        max_len: int = 50,
        k_core: int = 5,
    ) -> None:
        self.name = name
        self.max_len = max_len
        filtered = apply_k_core(interactions, k=k_core)
        if not filtered:
            raise ValueError("no interactions remain after k-core filtering")
        sequences, self.user_map, self.item_map = build_user_sequences(filtered)
        self.sequences = sequences
        self.num_users = len(sequences)
        self.num_items = len(self.item_map)  # real items; ids 1..num_items
        self.train_sequences, self.valid, self.test = leave_one_out_split(sequences)

        # Training instances: every prefix of the train split predicts
        # its next item (the DuoRec/SLIME4Rec instance expansion).
        self.train_instances: List[Tuple[List[int], int]] = []
        for seq in self.train_sequences:
            for cut in range(1, len(seq)):
                self.train_instances.append((seq[:cut], seq[cut]))

        # Same-target index for supervised contrastive sampling.
        self._target_index: Dict[int, List[int]] = {}
        for idx, (_, target) in enumerate(self.train_instances):
            self._target_index.setdefault(target, []).append(idx)

    # ------------------------------------------------------------------
    @property
    def vocab_size(self) -> int:
        """Number of rows needed in an item embedding (items + padding)."""
        return self.num_items + 1

    def stats(self) -> DatasetStats:
        actions = sum(len(s) for s in self.sequences)
        # Sparsity counts distinct (user, item) cells, so repeat
        # purchases (common in the dense ML-1M-style preset) cannot
        # push it negative.
        unique_pairs = sum(len(set(s)) for s in self.sequences)
        sparsity = 1.0 - unique_pairs / (self.num_users * self.num_items)
        return DatasetStats(
            name=self.name,
            num_users=self.num_users,
            num_items=self.num_items,
            num_actions=actions,
            avg_length=actions / self.num_users,
            sparsity=sparsity,
        )

    # ------------------------------------------------------------------
    def encode_prefix(self, prefix: Sequence[int]) -> np.ndarray:
        return pad_or_truncate(prefix, self.max_len)

    def train_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """All training instances as ``(inputs (I, N), targets (I,))``."""
        inputs = np.stack([self.encode_prefix(p) for p, _ in self.train_instances])
        targets = np.array([t for _, t in self.train_instances], dtype=np.int64)
        return inputs, targets

    def eval_arrays(self, split: str) -> Tuple[np.ndarray, np.ndarray]:
        """Evaluation inputs/targets for ``split`` in {"valid", "test"}."""
        pairs = {"valid": self.valid, "test": self.test}[split]
        inputs = np.stack([self.encode_prefix(p) for p, _ in pairs])
        targets = np.array([t for _, t in pairs], dtype=np.int64)
        return inputs, targets

    def sample_same_target(self, instance_idx: int, rng: np.random.Generator) -> int:
        """Index of another train instance sharing this instance's target.

        Falls back to the instance itself when it is the only one with
        that target (DuoRec does the same).
        """
        _, target = self.train_instances[instance_idx]
        candidates = self._target_index[target]
        if len(candidates) == 1:
            return instance_idx
        pick = instance_idx
        while pick == instance_idx:
            pick = candidates[int(rng.integers(len(candidates)))]
        return pick

    def __repr__(self) -> str:
        return f"SequenceDataset({self.stats().as_row()})"
