"""Leave-one-out evaluator over the full item catalog."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.autograd.tensor import no_grad
from repro.data.dataset import SequenceDataset
from repro.evaluation.metrics import hit_ratio_at_k, ndcg_at_k, rank_of_target

__all__ = ["Evaluator", "EvalResult"]

#: Score rows ranked per ``rank_of_target`` block: bounds the boolean
#: comparison temporaries to ``_RANK_CHUNK_SIZE × vocab_size``.
_RANK_CHUNK_SIZE = 256


@dataclass
class EvalResult:
    """Metric bundle for one split, keyed like ``HR@5`` / ``NDCG@10``."""

    metrics: Dict[str, float] = field(default_factory=dict)

    def __getitem__(self, key: str) -> float:
        return self.metrics[key]

    def as_row(self) -> str:
        return "  ".join(f"{k}={v:.4f}" for k, v in sorted(self.metrics.items()))


class Evaluator:
    """Ranks the full catalog for every evaluation user.

    Models expose ``score_context()`` and
    ``predict_scores(input_ids, context) -> np.ndarray`` of shape
    ``(B, vocab_size)``, as every
    :class:`~repro.core.encoder.SequentialEncoderBase` does: the item
    table is materialized once per evaluation pass and passed back with
    each batch.  The padding column (item 0) is excluded from the
    candidate set during ranking.  Items already present in a user's
    history are *not* masked, matching the paper's protocol of ranking
    over the whole item set.

    Scores are ranked in whatever float dtype the model produced — no
    widening copy to float64 — and the model's score buffer is never
    written to, so models may return views of shared or cached state.
    """

    def __init__(
        self,
        dataset: SequenceDataset,
        ks: Sequence[int] = (5, 10),
        batch_size: int = 512,
    ) -> None:
        self.dataset = dataset
        self.ks = tuple(ks)
        self.batch_size = batch_size

    def ranks(self, model, split: str = "test") -> np.ndarray:
        inputs, targets = self.dataset.eval_arrays(split)
        all_ranks = []
        model.eval()
        with no_grad():
            context = model.score_context()
            for start in range(0, inputs.shape[0], self.batch_size):
                chunk = inputs[start : start + self.batch_size]
                chunk_targets = targets[start : start + self.batch_size]
                scores = np.asarray(model.predict_scores(chunk, context=context))
                all_ranks.append(
                    rank_of_target(
                        scores,
                        chunk_targets,
                        exclude_padding=True,
                        chunk_size=_RANK_CHUNK_SIZE,
                    )
                )
        return np.concatenate(all_ranks)

    def evaluate(self, model, split: str = "test") -> EvalResult:
        ranks = self.ranks(model, split=split)
        metrics: Dict[str, float] = {}
        for k in self.ks:
            metrics[f"HR@{k}"] = hit_ratio_at_k(ranks, k)
            metrics[f"NDCG@{k}"] = ndcg_at_k(ranks, k)
        return EvalResult(metrics)
