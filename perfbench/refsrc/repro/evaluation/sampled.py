"""Sampled-negative evaluation (provided for comparison, not default).

The paper deliberately ranks against the *full* catalog, citing
Krichene & Rendle (KDD 2020) on the bias of sampled metrics.  This
module implements the classic 1-positive + n-negatives protocol anyway
so users can quantify that bias themselves on their own data; the
docstring warning is the point.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.autograd.tensor import no_grad
from repro.data.dataset import SequenceDataset
from repro.data.negative_sampling import NegativeSampler
from repro.evaluation.metrics import hit_ratio_at_k, ndcg_at_k

__all__ = ["SampledEvaluator"]


class SampledEvaluator:
    """Rank the target against ``num_negatives`` random unseen items.

    .. warning::
       Sampled metrics are *biased*: they overestimate HR/NDCG and can
       change model orderings.  Use :class:`~repro.evaluation.Evaluator`
       (full ranking) for paper-comparable numbers; use this class only
       to reproduce legacy protocols or to measure the bias.

    Negatives come from a shared
    :class:`~repro.data.negative_sampling.NegativeSampler` (uniform by
    default, matching the classic protocol; pass ``sampler`` for a
    popularity-weighted variant).  Each user's negatives are drawn in
    one vectorized without-replacement ``choice`` over the eligible set
    — a catalog with fewer than ``num_negatives`` unseen items raises a
    clear :class:`ValueError` instead of hanging in a rejection loop.
    """

    def __init__(
        self,
        dataset: SequenceDataset,
        ks: Sequence[int] = (5, 10),
        num_negatives: int = 100,
        seed: int = 0,
        sampler: Optional[NegativeSampler] = None,
    ) -> None:
        self.dataset = dataset
        self.ks = tuple(ks)
        self.num_negatives = num_negatives
        self.sampler = sampler or NegativeSampler(
            dataset.num_items, strategy="uniform", seed=seed
        )

    def _negatives_for(self, history: np.ndarray, target: int) -> np.ndarray:
        exclude = np.concatenate([np.asarray(history).reshape(-1), [0, int(target)]])
        return self.sampler.sample_excluding(exclude, self.num_negatives)

    def evaluate(self, model, split: str = "test") -> Dict[str, float]:
        inputs, targets = self.dataset.eval_arrays(split)
        model.eval()
        ranks = []
        with no_grad():
            scores = np.asarray(model.predict_scores(inputs), dtype=np.float64)
        for row, target in enumerate(targets):
            negatives = self._negatives_for(inputs[row], target)
            candidates = np.concatenate([[target], negatives])
            candidate_scores = scores[row, candidates]
            # Rank of the target (index 0) among the candidates.
            ranks.append(int((candidate_scores > candidate_scores[0]).sum()))
        ranks = np.asarray(ranks)
        metrics: Dict[str, float] = {}
        for k in self.ks:
            metrics[f"HR@{k}"] = hit_ratio_at_k(ranks, k)
            metrics[f"NDCG@{k}"] = ndcg_at_k(ranks, k)
        return metrics
