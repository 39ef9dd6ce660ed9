"""Evaluation protocol: full-catalog ranking, HR@K, NDCG@K, MRR, top-k."""

from repro.evaluation.metrics import hit_ratio_at_k, mrr, mrr_at_k, ndcg_at_k, rank_of_target
from repro.evaluation.evaluator import Evaluator, EvalResult
from repro.evaluation.sampled import SampledEvaluator
from repro.evaluation.topk import TopKAccumulator, TopKResult, full_sort_topk

__all__ = [
    "hit_ratio_at_k",
    "ndcg_at_k",
    "mrr",
    "mrr_at_k",
    "rank_of_target",
    "Evaluator",
    "EvalResult",
    "SampledEvaluator",
    "TopKAccumulator",
    "TopKResult",
    "full_sort_topk",
]
