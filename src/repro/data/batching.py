"""Mini-batch iteration over training instances.

The iterator is **resumable**: together with the trainer's run-state
archive it supports bitwise-identical crash/resume.  All randomness
(epoch shuffles and DuoRec-style same-target draws) flows through one
PCG64 generator, and :meth:`BatchIterator.state_dict` captures that
generator's bit state *as of the current epoch's start* plus the number
of batches already consumed.  On restore the next :meth:`epoch` call
re-draws the same permutation and replays the same-target draws of the
consumed batches (consuming the generator identically without yielding
them), so the resumed run sees exactly the batch stream — and leaves
the generator in exactly the position — an uninterrupted run would
have.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, Iterator, Optional

import numpy as np

from repro.autograd.workspace import (
    check_generator_state,
    generator_state,
    set_generator_state,
)
from repro.data.dataset import SequenceDataset

__all__ = ["Batch", "BatchIterator"]


@dataclass
class Batch:
    """One training mini-batch.

    ``input_ids`` is ``(B, N)`` int64 (0 = padding), ``targets`` is
    ``(B,)``.  When the iterator was built with same-target sampling,
    ``positive_ids`` holds another sequence per row that shares the same
    target item (DuoRec's supervised contrastive positive).
    """

    input_ids: np.ndarray
    targets: np.ndarray
    positive_ids: Optional[np.ndarray] = None
    instance_indices: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self.input_ids.shape[0]


class BatchIterator:
    """Shuffled epoch iterator over a dataset's training instances.

    Parameters
    ----------
    dataset:
        The preprocessed :class:`SequenceDataset`.
    batch_size:
        Rows per batch (the trailing partial batch is kept).
    with_same_target:
        Also sample a same-target positive sequence per row.
    seed:
        Shuffle seed; each epoch reshuffles deterministically.
    """

    def __init__(
        self,
        dataset: SequenceDataset,
        batch_size: int = 256,
        with_same_target: bool = False,
        seed: int = 0,
    ) -> None:
        self.dataset = dataset
        self.batch_size = batch_size
        self.with_same_target = with_same_target
        self._rng = np.random.default_rng(seed)
        self._inputs, self._targets = dataset.train_arrays()
        # Resume bookkeeping: the generator's bit state at the start of
        # the current (or next) epoch, the number of batches already
        # yielded from it, and a pending skip count set by
        # ``load_state_dict`` and consumed by the next ``epoch()`` call.
        self._epoch_start_state = generator_state(self._rng)
        self._position = 0
        self._resume_skip = 0

    def __len__(self) -> int:
        return (len(self._targets) + self.batch_size - 1) // self.batch_size

    def epoch(self) -> Iterator[Batch]:
        self._epoch_start_state = generator_state(self._rng)
        self._position = 0
        skip = self._resume_skip
        self._resume_skip = 0
        order = self._rng.permutation(len(self._targets))
        for batch_index, start in enumerate(range(0, len(order), self.batch_size)):
            idx = order[start : start + self.batch_size]
            positives = None
            pos_idx = None
            if self.with_same_target:
                # Drawn even for replayed (skipped) batches: the draws
                # consume the shared generator, and an identical stream
                # position is what makes resume bitwise-faithful.
                pos_idx = np.array(
                    [self.dataset.sample_same_target(int(i), self._rng) for i in idx]
                )
            self._position = batch_index + 1
            if batch_index < skip:
                continue
            if pos_idx is not None:
                positives = self._inputs[pos_idx]
            yield Batch(
                input_ids=self._inputs[idx],
                targets=self._targets[idx],
                positive_ids=positives,
                instance_indices=idx,
            )
        # Epoch fully consumed: re-anchor the resume state to the
        # generator's *current* position so a checkpoint taken between
        # epochs resumes with the next epoch's fresh permutation.
        self._position = 0
        self._epoch_start_state = generator_state(self._rng)

    # ------------------------------------------------------------------
    # Resume state
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict:
        """Snapshot of the shuffle stream and the position inside it.

        ``epoch_start_state`` is the generator bit state at the start of
        the epoch currently being iterated (or, between epochs, the
        state the next epoch will start from); ``position`` counts the
        batches already yielded from that epoch (0 between epochs).
        """
        return {
            "epoch_start_state": copy.deepcopy(self._epoch_start_state),
            "position": int(self._position),
        }

    def check_state_dict(self, state: Dict) -> None:
        """Raise unless :meth:`load_state_dict` would accept ``state``."""
        position = int(state["position"])
        if position < 0 or position > len(self):
            raise ValueError(
                f"iterator position {position} out of range for "
                f"{len(self)} batches per epoch"
            )
        check_generator_state(self._rng, state["epoch_start_state"])

    def load_state_dict(self, state: Dict) -> None:
        """Restore a :meth:`state_dict`; the next :meth:`epoch` call
        re-draws the saved epoch's permutation and resumes after the
        already-consumed batches."""
        self.check_state_dict(state)
        set_generator_state(self._rng, state["epoch_start_state"])
        self._epoch_start_state = copy.deepcopy(state["epoch_start_state"])
        self._position = int(state["position"])
        self._resume_skip = self._position
