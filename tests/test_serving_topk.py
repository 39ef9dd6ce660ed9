"""Property tests for the streaming top-k (`repro.evaluation.topk`).

The ranking contract all serving/evaluation paths share: descending
score, ties broken by ascending item id, excluded ids never surface,
short rows pad with id -1 / score -inf.  `full_sort_topk` (one stable
full argsort) is the executable specification; the streaming
`TopKAccumulator`, walked over whole matrices by the test oracle
`topk_reference.blocked_topk`, is pinned equal to it — including
deliberately tie-heavy matrices where `argpartition`'s arbitrary
boundary resolution would otherwise diverge — across dtypes, k edges
(`k = 1`, `k = V`, `k > V`) and block sizes that do and do not divide
the catalog.
"""

import numpy as np
import pytest

from repro.evaluation.topk import TopKAccumulator, full_sort_topk
from topk_reference import blocked_topk


def reference_order(scores, k, exclude=None, exclude_padding=True):
    """Independent spec: stable argsort of (-score, id) per row."""
    scores = np.asarray(scores, dtype=np.float64).copy()
    if exclude_padding:
        scores[:, 0] = -np.inf
    if exclude is not None:
        for row, ids in enumerate(exclude):
            scores[row, np.asarray(ids, dtype=np.int64)] = -np.inf
    k = min(k, scores.shape[1])
    ids = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    top = np.take_along_axis(scores, ids, axis=1)
    return np.where(np.isneginf(top), -1, ids), top


def assert_same_result(got, want_ids, want_scores):
    np.testing.assert_array_equal(got.ids, want_ids)
    # sentinel slots hold -inf on both sides; compare as float64
    np.testing.assert_array_equal(
        np.asarray(got.scores, dtype=np.float64), np.asarray(want_scores, np.float64)
    )


class TestOrderingContract:
    def test_descending_scores_ties_by_ascending_id(self):
        scores = np.array([[0.0, 2.0, 5.0, 5.0, 1.0, 5.0]])
        result = full_sort_topk(scores, 4, exclude_padding=False)
        np.testing.assert_array_equal(result.ids, [[2, 3, 5, 1]])
        np.testing.assert_array_equal(result.scores, [[5.0, 5.0, 5.0, 2.0]])
        blocked = blocked_topk(scores, 4, block_size=2, exclude_padding=False)
        np.testing.assert_array_equal(blocked.ids, result.ids)

    def test_padding_column_never_surfaces(self):
        scores = np.full((2, 4), 1.0)
        scores[:, 0] = 99.0  # the padding item has the best score
        for result in (full_sort_topk(scores, 2), blocked_topk(scores, 2, block_size=3)):
            assert 0 not in result.ids

    def test_k_one(self):
        scores = np.array([[1.0, 3.0, 3.0, 2.0]])
        result = blocked_topk(scores, 1, block_size=2, exclude_padding=False)
        np.testing.assert_array_equal(result.ids, [[1]])

    def test_k_at_least_catalog_returns_everything_ranked(self):
        scores = np.array([[2.0, 1.0, 3.0]])
        for k in (3, 4, 10):
            result = blocked_topk(scores, k, block_size=2, exclude_padding=False)
            np.testing.assert_array_equal(result.ids, [[2, 0, 1]])
            assert result.ids.shape[1] == 3

    def test_fully_excluded_row_is_all_sentinels(self):
        scores = np.ones((1, 4))
        result = blocked_topk(scores, 3, exclude=[np.arange(4)], exclude_padding=True)
        np.testing.assert_array_equal(result.ids, [[-1, -1, -1]])
        assert np.isneginf(result.scores).all()

    def test_input_never_mutated(self):
        scores = np.arange(12, dtype=np.float64).reshape(3, 4)
        before = scores.copy()
        blocked_topk(scores, 2, block_size=2, exclude=[[1], [2], [3]])
        full_sort_topk(scores, 2, exclude=[[1], [2], [3]])
        np.testing.assert_array_equal(scores, before)


class TestBlockedMatchesFullSort:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("tie_levels", [0, 3], ids=["continuous", "tie-heavy"])
    def test_random_matrices(self, dtype, tie_levels):
        rng = np.random.default_rng(hash((str(dtype), tie_levels)) % 2**32)
        for trial in range(40):
            batch = int(rng.integers(1, 9))
            catalog = int(rng.integers(2, 200))
            k = int(rng.integers(1, catalog + 4))
            block = int(rng.integers(1, catalog + 3))
            if tie_levels:
                scores = rng.integers(0, tie_levels, size=(batch, catalog))
                scores = scores.astype(dtype)
            else:
                scores = rng.standard_normal((batch, catalog)).astype(dtype)
            reference = full_sort_topk(scores, k)
            blocked = blocked_topk(scores, k, block_size=block)
            assert_same_result(blocked, reference.ids, reference.scores)
            want_ids, want_scores = reference_order(scores, k)
            assert_same_result(reference, want_ids, want_scores)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_random_matrices_with_seen_masking(self, dtype):
        rng = np.random.default_rng(11 if dtype is np.float64 else 12)
        for trial in range(30):
            batch = int(rng.integers(1, 7))
            catalog = int(rng.integers(4, 120))
            k = int(rng.integers(1, catalog + 2))
            block = int(rng.integers(1, catalog + 2))
            scores = rng.integers(0, 4, size=(batch, catalog)).astype(dtype)
            exclude = [
                rng.choice(catalog, size=int(rng.integers(0, catalog // 2 + 1)), replace=False)
                for _ in range(batch)
            ]
            reference = full_sort_topk(scores, k, exclude=exclude)
            blocked = blocked_topk(scores, k, block_size=block, exclude=exclude)
            assert_same_result(blocked, reference.ids, reference.scores)
            want_ids, want_scores = reference_order(scores, k, exclude=exclude)
            assert_same_result(reference, want_ids, want_scores)
            # The masking property: a masked id never surfaces.
            for row in range(batch):
                surfaced = set(blocked.ids[row][blocked.ids[row] >= 0].tolist())
                assert 0 not in surfaced
                assert not surfaced & set(np.asarray(exclude[row]).tolist())

    def test_float16_scores(self):
        rng = np.random.default_rng(5)
        scores = rng.standard_normal((4, 60)).astype(np.float16)
        reference = full_sort_topk(scores, 7)
        blocked = blocked_topk(scores, 7, block_size=9)
        np.testing.assert_array_equal(blocked.ids, reference.ids)
        np.testing.assert_array_equal(blocked.scores, reference.scores)

    def test_boundary_tie_straddles_block_edge(self):
        # Equal scores split across two blocks with ids that force the
        # pool's argpartition boundary to land inside the tie group.
        scores = np.array([[1.0, 5.0, 5.0, 5.0, 5.0, 5.0, 2.0, 5.0]])
        reference = full_sort_topk(scores, 3, exclude_padding=False)
        for block in (1, 2, 3, 4, 5):
            blocked = blocked_topk(scores, 3, block_size=block, exclude_padding=False)
            np.testing.assert_array_equal(blocked.ids, reference.ids)
        np.testing.assert_array_equal(reference.ids, [[1, 2, 3]])


class TestAccumulator:
    def test_streaming_blocks_match_matrix_call(self):
        rng = np.random.default_rng(21)
        scores = rng.integers(0, 3, size=(5, 83)).astype(np.float32)
        exclude = [rng.choice(83, size=6, replace=False) for _ in range(5)]
        acc = TopKAccumulator(5, 10)
        for start in range(0, 83, 17):
            block = scores[:, start : start + 17].copy()
            acc.update(start, block, exclude=exclude, writable=True)
        reference = blocked_topk(scores, 10, block_size=29, exclude=exclude)
        result = acc.result()
        np.testing.assert_array_equal(result.ids, reference.ids)
        np.testing.assert_array_equal(result.scores, reference.scores)

    def test_writable_false_copies_before_masking(self):
        scores = np.ones((1, 6))
        acc = TopKAccumulator(1, 2)
        acc.update(0, scores, exclude=[[3]], writable=False)
        np.testing.assert_array_equal(scores, np.ones((1, 6)))

    def test_result_before_update_raises(self):
        with pytest.raises(ValueError, match="update"):
            TopKAccumulator(2, 3).result()

    def test_shape_validation(self):
        acc = TopKAccumulator(2, 3)
        with pytest.raises(ValueError, match="score matrix"):
            acc.update(0, np.ones((3, 4)))
        with pytest.raises(ValueError, match="k must be"):
            TopKAccumulator(2, 0)

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="block_size"):
            blocked_topk(np.ones((1, 4)), 2, block_size=0)
        with pytest.raises(ValueError, match="k must be"):
            full_sort_topk(np.ones((1, 4)), 0)
        with pytest.raises(ValueError, match="shape"):
            blocked_topk(np.ones(4), 2)
