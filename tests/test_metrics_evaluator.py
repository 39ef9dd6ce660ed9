"""Tests for ranking metrics and the full-catalog evaluator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.dataset import SequenceDataset
from repro.data.synthetic import SyntheticConfig, generate_interactions
from repro.evaluation import Evaluator, hit_ratio_at_k, ndcg_at_k, rank_of_target
from repro.evaluation.evaluator import _RANK_CHUNK_SIZE


class TestRankOfTarget:
    def test_best_item_rank_zero(self):
        scores = np.array([[0.1, 0.9, 0.5]])
        assert rank_of_target(scores, np.array([1]))[0] == 0

    def test_worst_item(self):
        scores = np.array([[0.9, 0.5, 0.1]])
        assert rank_of_target(scores, np.array([2]))[0] == 2

    def test_tie_breaking_is_pessimistic_by_id(self):
        scores = np.array([[0.5, 0.5, 0.5]])
        # Equal scores: smaller ids rank ahead of the target.
        assert rank_of_target(scores, np.array([2]))[0] == 2
        assert rank_of_target(scores, np.array([0]))[0] == 0

    def test_batch(self):
        scores = np.array([[0.9, 0.1], [0.1, 0.9]])
        ranks = rank_of_target(scores, np.array([0, 0]))
        assert ranks.tolist() == [0, 1]

    @given(
        n_items=st.integers(2, 30),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_argsort_without_ties(self, n_items, seed):
        r = np.random.default_rng(seed)
        scores = r.permutation(n_items).astype(float)[None, :]  # unique scores
        target = int(r.integers(n_items))
        expected = int(np.where(np.argsort(-scores[0]) == target)[0][0])
        assert rank_of_target(scores, np.array([target]))[0] == expected


class TestMetrics:
    def test_hr_simple(self):
        assert hit_ratio_at_k([0, 4, 10], 5) == pytest.approx(2 / 3)

    def test_hr_empty(self):
        assert hit_ratio_at_k([], 5) == 0.0

    def test_ndcg_rank_zero_is_one(self):
        assert ndcg_at_k([0], 5) == pytest.approx(1.0)

    def test_ndcg_discount(self):
        assert ndcg_at_k([1], 5) == pytest.approx(1.0 / np.log2(3))

    def test_ndcg_outside_k_is_zero(self):
        assert ndcg_at_k([7], 5) == 0.0

    def test_ndcg_leq_hr(self):
        ranks = [0, 2, 9, 15]
        for k in (5, 10):
            assert ndcg_at_k(ranks, k) <= hit_ratio_at_k(ranks, k) + 1e-12

    @given(
        ranks=st.lists(st.integers(0, 50), min_size=1, max_size=30),
        k=st.integers(1, 20),
    )
    @settings(max_examples=50, deadline=None)
    def test_bounds_property(self, ranks, k):
        hr = hit_ratio_at_k(ranks, k)
        ndcg = ndcg_at_k(ranks, k)
        assert 0.0 <= ndcg <= hr <= 1.0

    def test_monotonic_in_k(self):
        ranks = [0, 3, 8, 12, 40]
        hrs = [hit_ratio_at_k(ranks, k) for k in (1, 5, 10, 50)]
        assert hrs == sorted(hrs)


class _OracleModel:
    """Scores the true target highest — must achieve perfect metrics."""

    def __init__(self, dataset, split):
        inputs, targets = dataset.eval_arrays(split)
        self._lookup = {inp.tobytes(): t for inp, t in zip(inputs, targets)}
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


class _AntiOracleModel(_OracleModel):
    def predict_scores(self, input_ids, context=None):
        return -super().predict_scores(input_ids)


@pytest.fixture
def dataset():
    cfg = SyntheticConfig(num_users=40, num_items=35, seed=4)
    return SequenceDataset(generate_interactions(cfg), max_len=8)


class TestRankOfTargetPaddingAndChunks:
    def test_exclude_padding_equals_neg_inf_masking(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=(16, 12))
        targets = rng.integers(1, 12, size=16)
        masked = scores.copy()
        masked[:, 0] = -np.inf
        assert np.array_equal(
            rank_of_target(scores, targets, exclude_padding=True),
            rank_of_target(masked, targets),
        )

    def test_exclude_padding_rejects_padding_targets(self):
        with pytest.raises(ValueError):
            rank_of_target(np.zeros((2, 5)), np.array([0, 3]), exclude_padding=True)

    def test_exclude_padding_does_not_write_scores(self):
        scores = np.full((4, 6), 0.5)
        scores[:, 0] = 99.0  # padding would win without exclusion
        before = scores.copy()
        rank_of_target(scores, np.array([1, 2, 3, 4]), exclude_padding=True)
        assert np.array_equal(scores, before)

    @pytest.mark.parametrize("chunk_size", [1, 3, 7, 100])
    def test_chunked_ranks_identical(self, chunk_size):
        rng = np.random.default_rng(5)
        scores = rng.normal(size=(17, 9))
        targets = rng.integers(0, 9, size=17)
        assert np.array_equal(
            rank_of_target(scores, targets, chunk_size=chunk_size),
            rank_of_target(scores, targets),
        )


class _SharedBufferModel(_OracleModel):
    """Returns the same cached score buffer on every call.

    Models that cache or memoize their scores hand the evaluator a view
    of shared state; the evaluator must treat it as read-only.
    """

    def __init__(self, dataset, split):
        super().__init__(dataset, split)
        self._buffer = None

    def predict_scores(self, input_ids, context=None):
        scores = super().predict_scores(input_ids)
        scores[:, 0] = 100.0  # shared state that must survive evaluation
        self._buffer = scores
        return self._buffer


class TestEvaluator:
    def test_shared_score_buffer_not_corrupted(self, dataset):
        """Regression: ranks() used to write -inf into the model's buffer."""
        model = _SharedBufferModel(dataset, "test")
        result = Evaluator(dataset, ks=(1,)).evaluate(model, split="test")
        assert result["HR@1"] == 1.0  # padding still excluded from ranking
        assert np.allclose(model._buffer[:, 0], 100.0)  # buffer untouched
        assert np.all(np.isfinite(model._buffer))
    def test_oracle_scores_perfectly(self, dataset):
        ev = Evaluator(dataset, ks=(5, 10))
        result = ev.evaluate(_OracleModel(dataset, "test"), split="test")
        assert result["HR@5"] == 1.0
        assert result["NDCG@10"] == 1.0

    def test_anti_oracle_scores_zero_at_small_k(self, dataset):
        ev = Evaluator(dataset, ks=(1,))
        result = ev.evaluate(_AntiOracleModel(dataset, "test"), split="test")
        assert result["HR@1"] == 0.0

    def test_padding_item_never_recommended(self, dataset):
        class PadLover(_OracleModel):
            def predict_scores(self, input_ids, context=None):
                scores = super().predict_scores(input_ids)
                scores[:, 0] = 100.0  # tries to recommend padding
                return scores

        ev = Evaluator(dataset, ks=(1,))
        result = ev.evaluate(PadLover(dataset, "test"), split="test")
        # padding masked -> target still wins at rank 0
        assert result["HR@1"] == 1.0

    def test_valid_and_test_splits_differ(self, dataset):
        ev = Evaluator(dataset, ks=(5,))
        model = _OracleModel(dataset, "test")
        test_res = ev.evaluate(model, split="test")
        # the oracle for test is (almost surely) not the oracle for valid
        valid_inputs, _ = dataset.eval_arrays("valid")
        assert test_res["HR@5"] == 1.0

    def test_batched_evaluation_matches_single_batch(self, dataset):
        model = _OracleModel(dataset, "test")
        small = Evaluator(dataset, ks=(5,), batch_size=7).ranks(model)
        big = Evaluator(dataset, ks=(5,), batch_size=10_000).ranks(model)
        assert np.array_equal(small, big)

    def test_ranks_across_rank_chunks_match_one_block(self):
        """More rows than one ranking block in a single score batch: the
        block boundary must not change any rank."""
        cfg = SyntheticConfig(num_users=_RANK_CHUNK_SIZE + 40, num_items=35, seed=6)
        dataset = SequenceDataset(generate_interactions(cfg), max_len=8)
        inputs, targets = dataset.eval_arrays("test")
        assert len(inputs) > _RANK_CHUNK_SIZE

        class Hashed(_OracleModel):
            def predict_scores(self, input_ids, context=None):
                seed = input_ids @ np.arange(1, input_ids.shape[1] + 1)
                return np.sin(np.outer(seed, np.arange(self._vocab)) * 0.37)

        model = Hashed(dataset, "test")
        got = Evaluator(dataset, ks=(5,), batch_size=10_000).ranks(model)
        scores = model.predict_scores(inputs)
        assert np.array_equal(got, rank_of_target(scores, targets, exclude_padding=True))

    def test_rank_chunk_size_is_not_an_option(self, dataset):
        with pytest.raises(TypeError, match="rank_chunk_size"):
            Evaluator(dataset, rank_chunk_size=8)

    def test_result_as_row_format(self, dataset):
        ev = Evaluator(dataset, ks=(5,))
        row = ev.evaluate(_OracleModel(dataset, "test")).as_row()
        assert "HR@5" in row and "NDCG@5" in row
