"""Tests for sampled-negative evaluation and the MRR metrics."""

import numpy as np
import pytest

from repro.data.dataset import SequenceDataset
from repro.data.synthetic import SyntheticConfig, generate_interactions
from repro.evaluation.metrics import mrr, mrr_at_k
from repro.evaluation.sampled import SampledEvaluator


class TestMrr:
    def test_rank_zero_is_one(self):
        assert mrr([0]) == 1.0

    def test_simple_average(self):
        assert mrr([0, 1]) == pytest.approx((1.0 + 0.5) / 2)

    def test_empty(self):
        assert mrr([]) == 0.0

    def test_mrr_at_k_truncates(self):
        assert mrr_at_k([0, 10], 5) == pytest.approx(0.5)

    def test_mrr_at_k_leq_mrr(self):
        ranks = [0, 3, 7, 20]
        assert mrr_at_k(ranks, 5) <= mrr(ranks)


@pytest.fixture(scope="module")
def dataset():
    cfg = SyntheticConfig(num_users=50, num_items=60, seed=4)
    return SequenceDataset(generate_interactions(cfg), max_len=10)


class _OracleModel:
    def __init__(self, dataset):
        inputs, targets = dataset.eval_arrays("test")
        self._lookup = {i.tobytes(): t for i, t in zip(inputs, targets)}
        self._vocab = dataset.vocab_size

    def eval(self):
        return self

    def score_context(self):
        return None

    def predict_scores(self, input_ids, context=None):
        scores = np.zeros((input_ids.shape[0], self._vocab))
        for row, inp in enumerate(input_ids):
            scores[row, self._lookup[inp.tobytes()]] = 1.0
        return scores


class _UniformModel:
    def __init__(self, vocab):
        self._vocab = vocab
        self._rng = np.random.default_rng(1)

    def eval(self):
        return self

    def score_context(self):
        return None

    def predict_scores(self, input_ids, context=None):
        return self._rng.random((input_ids.shape[0], self._vocab))


class TestSampledEvaluator:
    def test_oracle_perfect(self, dataset):
        ev = SampledEvaluator(dataset, ks=(5,), num_negatives=20)
        out = ev.evaluate(_OracleModel(dataset))
        assert out["HR@5"] == 1.0 and out["NDCG@5"] == 1.0

    def test_sampled_overestimates_full_ranking(self, dataset):
        """The Krichene-Rendle bias: sampled metrics >= full metrics."""
        from repro.evaluation import Evaluator

        model = _UniformModel(dataset.vocab_size)
        sampled = SampledEvaluator(dataset, ks=(5,), num_negatives=10, seed=0).evaluate(model)
        full = Evaluator(dataset, ks=(5,)).evaluate(model)
        assert sampled["HR@5"] >= full["HR@5"]

    def test_negatives_exclude_history_and_target(self, dataset):
        ev = SampledEvaluator(dataset, num_negatives=30, seed=0)
        inputs, targets = dataset.eval_arrays("test")
        negs = ev._negatives_for(inputs[0], targets[0])
        assert targets[0] not in negs
        assert 0 not in negs
        assert not set(negs) & set(inputs[0][inputs[0] != 0].tolist())
        assert len(set(negs.tolist())) == 30

    def test_metric_keys(self, dataset):
        ev = SampledEvaluator(dataset, ks=(1, 5), num_negatives=10)
        out = ev.evaluate(_OracleModel(dataset))
        assert set(out) == {"HR@1", "HR@5", "NDCG@1", "NDCG@5"}

    def test_small_catalog_raises_instead_of_hanging(self):
        """num_negatives > eligible items used to spin the rejection
        loop forever; it must now raise a clear ValueError."""
        cfg = SyntheticConfig(num_users=40, num_items=50, seed=6)
        small = SequenceDataset(generate_interactions(cfg), max_len=10)
        assert small.num_items < 100
        ev = SampledEvaluator(small, num_negatives=100)
        with pytest.raises(ValueError, match="eligible"):
            ev.evaluate(_UniformModel(small.vocab_size))

    def test_negatives_deterministic_with_seed(self, dataset):
        inputs, targets = dataset.eval_arrays("test")
        a = SampledEvaluator(dataset, num_negatives=20, seed=3)
        b = SampledEvaluator(dataset, num_negatives=20, seed=3)
        np.testing.assert_array_equal(
            a._negatives_for(inputs[0], targets[0]),
            b._negatives_for(inputs[0], targets[0]),
        )
        c = SampledEvaluator(dataset, num_negatives=20, seed=4)
        assert not np.array_equal(
            a._negatives_for(inputs[1], targets[1]),
            c._negatives_for(inputs[1], targets[1]),
        )

    def test_evaluate_deterministic_with_seed(self, dataset):
        model = _UniformModel(dataset.vocab_size)
        out_a = SampledEvaluator(dataset, ks=(5,), num_negatives=15, seed=9).evaluate(model)
        model_b = _UniformModel(dataset.vocab_size)
        out_b = SampledEvaluator(dataset, ks=(5,), num_negatives=15, seed=9).evaluate(model_b)
        assert out_a == out_b

    def test_shared_sampler_injection(self, dataset):
        """A popularity-weighted NegativeSampler can be swapped in."""
        from repro.data.negative_sampling import NegativeSampler

        sampler = NegativeSampler(dataset.num_items, strategy="log_uniform", seed=0)
        ev = SampledEvaluator(dataset, ks=(5,), num_negatives=10, sampler=sampler)
        assert ev.sampler is sampler
        out = ev.evaluate(_OracleModel(dataset))
        assert out["HR@5"] == 1.0
