"""Serving subsystem correctness (`repro.serving`).

The load-bearing properties:

- **Incremental append == cold re-encode.**  A session built by O(1)
  ring-buffer appends produces the same window — and therefore the
  same scores — as a cold `pad_or_truncate` over the full raw history:
  bitwise in float64, within reassociation tolerance in float32, across
  multi-event sequences that overflow the window.
- **Cached user state is invisible.**  Serving the same user twice
  re-encodes nothing and returns identical results; a parameter update
  is detected (table staleness + per-vector version stamps) and every
  cached artifact is rebuilt before the next response.
- **The fast path is the reference path.**  The service has one arm;
  its reference is the test-side oracle :func:`cold_reference` (a full
  re-encode, then ``full_sort_topk`` over a table widened by the
  integer-rounding :func:`bf16_oracle`).  Micro-batched + blocked +
  cached results equal it (same ids, scores to float32 reassociation);
  the table's rounding matches the integer-math oracle; on a trained
  model the served arm and the model-dtype full-sort oracle agree on
  HR@10 / NDCG@10 within ``FIDELITY_TOLERANCE``.
- **A table is finite or it is not replaced.**  A non-finite embedding
  raises ``ValueError`` on build; the previous snapshot stays the
  service's table, ``refresh_errors`` counts the failure, and the
  failed parameter version is not rebuilt until the parameters change.
- **Serving loads what training tested.**  ``repro-serve --checkpoint``
  on a ``repro-train --checkpoint-dir`` store restores the trained
  model's final weights bitwise, through the store's verified load.
- **Satellite pin**: `predict_scores` / the serving encode run under
  `no_grad` — evaluation scoring builds no autograd graph.
"""

import shutil
import sys
import threading
import time

import numpy as np
import pytest

from repro.autograd.tensor import is_grad_enabled, no_grad
from repro.baselines import build_baseline
from repro.data.preprocess import pad_or_truncate
from repro.data.synthetic import load_preset
from repro.evaluation.topk import full_sort_topk
from repro.optim import Adam
from repro.serving import (
    ItemTable,
    RecommenderService,
    ServingConfig,
    SessionCache,
    UserSession,
)
from repro.serving import cli as serve_cli
from repro.serving.cli import main as serve_cli_main
from repro.serving.table import to_bfloat16_bits, widen_bfloat16
from repro.train import TrainConfig, Trainer
from repro.train import cli as train_cli
from repro.train.trainer import unpack_run_state
from repro.utils.io import CheckpointStore

MAX_LEN = 16
#: max |HR@10 / NDCG@10| gap between the bfloat16 + blocked serving arm
#: and the model-dtype + full-sort oracle on a trained model
FIDELITY_TOLERANCE = 0.01


@pytest.fixture(scope="module")
def dataset():
    return load_preset("beauty", scale=0.1, max_len=MAX_LEN)


def make_model(dataset, dtype="float32", name="SLIME4Rec", seed=0):
    return build_baseline(name, dataset, hidden_dim=16, seed=seed, dtype=dtype)


#: reference-arm ServingConfig fields that left the service, with the
#: repro-serve flag each had (None: the field never had one)
REMOVED_FIELDS = {
    "table_dtype": "--table-dtype",
    "topk": "--topk",
    "reuse_user_state": None,
    "auto_refresh": None,
    "encode_batch_size": None,
}


def poison_item_row(model, item, value):
    """Write ``value`` into one item-embedding row through
    ``load_state_dict`` (which ticks the parameter version)."""
    state = model.state_dict()
    state["item_embedding.weight"][item] = value
    model.load_state_dict(state)


def bf16_oracle(values):
    """bf16 bits of float32 ``values`` by explicit integer rounding:
    keep the upper half, round up when the dropped half is above the
    midpoint or exactly on it with an odd upper half."""
    bits = np.asarray(values, dtype=np.float32).view(np.uint32).astype(np.int64)
    upper, lower = bits >> 16, bits & 0xFFFF
    round_up = (lower > 0x8000) | ((lower == 0x8000) & (upper & 1 == 1))
    return ((upper + round_up) & 0xFFFF).astype(np.uint16)


def widened_oracle(context):
    """The float32 table the bf16 snapshot of ``context`` stands for."""
    return (bf16_oracle(context).astype(np.uint32) << 16).view(np.float32)


# ----------------------------------------------------------------------
# UserSession / SessionCache
# ----------------------------------------------------------------------


class TestUserSession:
    def test_window_matches_pad_or_truncate_across_growth(self):
        """The ring buffer IS Eq. 1: byte-identical to the cold path."""
        rng = np.random.default_rng(0)
        session = UserSession("u", MAX_LEN)
        history = []
        for _ in range(3 * MAX_LEN):  # overflow the window twice
            item = int(rng.integers(1, 500))
            history.append(item)
            session.append(item)
            np.testing.assert_array_equal(
                session.window(), pad_or_truncate(history, MAX_LEN)
            )

    def test_append_invalidates_cached_vector(self):
        session = UserSession("u", 4)
        session.append(3)
        session.store_vec(np.ones(8), version=7)
        assert session.is_fresh(7) and not session.is_fresh(8)
        session.append(5)
        assert not session.is_fresh(7)

    def test_seen_is_unique_window_contents(self):
        session = UserSession("u", 4)
        session.extend([9, 2, 9, 7, 2])  # 9 at the head fell out? no: window keeps last 4
        np.testing.assert_array_equal(session.seen(), [2, 7, 9])
        assert UserSession("v", 4).seen().size == 0

    def test_replace_history_resets(self):
        session = UserSession("u", 4)
        session.extend(range(1, 9))
        session.replace_history([3, 1])
        np.testing.assert_array_equal(session.window(), [0, 0, 3, 1])
        assert session.length == 2

    def test_rejects_padding_and_negative_ids(self):
        session = UserSession("u", 4)
        with pytest.raises(ValueError, match="padding"):
            session.append(0)
        with pytest.raises(ValueError, match="padding"):
            session.append(-3)
        with pytest.raises(ValueError, match="max_len"):
            UserSession("u", 0)


class TestSessionCache:
    def test_lru_eviction_order(self):
        cache = SessionCache(8, capacity=2)
        a, b = cache.get_or_create("a"), cache.get_or_create("b")
        assert cache.get("a") is a  # touch: "b" becomes LRU
        cache.get_or_create("c")
        assert "b" not in cache and "a" in cache and "c" in cache
        assert cache.evictions == 1

    def test_unbounded_by_default(self):
        cache = SessionCache(8)
        for i in range(100):
            cache.get_or_create(i)
        assert len(cache) == 100 and cache.evictions == 0

    def test_invalidate_vectors(self):
        cache = SessionCache(8)
        s = cache.get_or_create("a")
        s.store_vec(np.ones(3), version=1)
        cache.invalidate_vectors()
        assert s.user_vec is None

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            SessionCache(8, capacity=0)


# ----------------------------------------------------------------------
# Encoder inference hooks (satellite: eval scoring under no_grad)
# ----------------------------------------------------------------------


class TestEncoderInferenceHooks:
    def test_predict_scores_runs_under_no_grad(self, dataset):
        """The eval scoring path must not build a throwaway graph."""
        model = make_model(dataset)
        observed = []
        original = model.user_representation

        def spy(input_ids):
            observed.append(is_grad_enabled())
            return original(input_ids)

        model.user_representation = spy
        model.eval()
        inputs = dataset.eval_arrays("valid")[0][:4]
        assert is_grad_enabled()  # caller is in grad mode...
        model.predict_scores(inputs)
        model.predict_scores(inputs, context=model.score_context())
        model.encode_users(inputs)
        assert observed == [False, False, False]  # ...the scoring path is not

    def test_predict_scores_values_unchanged_by_no_grad(self, dataset):
        model = make_model(dataset, dtype="float64")
        model.eval()
        inputs = dataset.eval_arrays("valid")[0][:4]
        want = model.user_representation(inputs).data @ model.score_context()
        np.testing.assert_array_equal(model.predict_scores(inputs), want)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_encode_users_matches_user_representation(self, dataset, dtype):
        model = make_model(dataset, dtype=dtype)
        model.eval()
        inputs = dataset.eval_arrays("valid")[0][:6]
        with no_grad():
            want = model.user_representation(inputs).data
        np.testing.assert_array_equal(model.encode_users(inputs), want)
        # single-window convenience shape and chunked batches
        np.testing.assert_array_equal(model.encode_users(inputs[0]), want[:1])

    def test_inference_version_ticks_on_optimizer_step(self, dataset):
        model = make_model(dataset)
        before = model.inference_version()
        optimizer = Adam(model.parameters())
        model.train()
        # a zero-grad step still bumps the global parameter version
        optimizer.zero_grad()
        optimizer.step()
        assert model.inference_version() > before


def _tiny_batch(dataset):
    inputs, targets = dataset.train_arrays()
    return inputs[:8], targets[:8]


# ----------------------------------------------------------------------
# ItemTable
# ----------------------------------------------------------------------


class TestItemTable:
    def test_bf16_snapshot_leaves_training_dtype_untouched(self, dataset):
        model = make_model(dataset, dtype="float32")
        table = ItemTable(model)
        assert table.table.dtype == np.uint16
        assert model.item_embedding.weight.dtype == np.float32
        assert table.compute_dtype == np.float32
        np.testing.assert_array_equal(table.table, bf16_oracle(model.score_context()))

    def test_float64_model_rounds_through_float32(self, dataset):
        model = make_model(dataset, dtype="float64")
        context = model.score_context()
        table = ItemTable(model, block_size=7)
        np.testing.assert_array_equal(table.table, bf16_oracle(context.astype(np.float32)))
        assert table.compute_dtype == np.float32

    def test_bf16_rounding_matches_integer_oracle(self):
        rng = np.random.default_rng(0)
        random_bits = rng.integers(0, 2**32, size=200_000, dtype=np.uint32)
        finite = random_bits[(random_bits & 0x7F800000) != 0x7F800000]
        crafted = np.array(
            [
                0x3F808000,  # tie, even upper half: stays
                0x3F818000,  # tie, odd upper half: rounds up to even
                0x3F807FFF, 0x3F808001,  # just below / above a tie
                0xBF818000,  # negative tie rounds away from zero to even
                0x7F7F7FFF,  # largest value that stays finite
                0x7F7F8000, 0x7F7FFFFF, 0xFF7F8000,  # round to +-inf
                0x00000000, 0x80000000,  # signed zeros
                0x00010000, 0x807F0000,  # bf16 subnormals: kept exactly
                0x00018000, 0x00028000,  # subnormal ties go to even
                0x00000001,  # below half the smallest bf16 subnormal: +0
            ],
            dtype=np.uint32,
        )
        values = np.concatenate([crafted, finite]).view(np.float32)
        got = to_bfloat16_bits(values)
        np.testing.assert_array_equal(got, bf16_oracle(values))
        assert got.dtype == np.uint16
        assert got[:16].tolist() == [
            0x3F80, 0x3F82, 0x3F80, 0x3F81, 0xBF82, 0x7F7F,
            0x7F80, 0x7F80, 0xFF80, 0x0000, 0x8000,
            0x0001, 0x807F, 0x0002, 0x0002, 0x0000,
        ]
        # widening is exact: the bf16 bits become the float32 upper half
        widened = widen_bfloat16(got)
        assert widened.dtype == np.float32
        np.testing.assert_array_equal(
            widened.view(np.uint32), got.astype(np.uint32) << 16
        )
        np.testing.assert_array_equal(to_bfloat16_bits(widened), got)

    def test_blocked_scoring_matches_full_gemm(self, dataset):
        model = make_model(dataset, dtype="float32")
        table = ItemTable(model, block_size=7)
        users = table.prepare_users(np.random.default_rng(1).standard_normal((5, 16)))
        full = table.score_all(users)
        blocks = np.concatenate(
            [
                table.score_block(users, start, start + 7)
                for start in range(0, table.num_columns, 7)
            ],
            axis=1,
        )
        np.testing.assert_allclose(blocks, full, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_model_raises(self, dataset, bad):
        model = make_model(dataset)
        poison_item_row(model, 3, bad)
        with pytest.raises(ValueError, match="16 non-finite entries"):
            ItemTable(model, block_size=7)

    def test_staleness_detected_after_parameter_update(self, dataset):
        """score_context consumers can detect parameter updates."""
        model = make_model(dataset, dtype="float32")
        table = ItemTable(model)
        assert not table.is_stale(model)
        optimizer = Adam(model.parameters())
        optimizer.zero_grad()
        optimizer.step()
        assert table.is_stale(model)
        assert not ItemTable(model).is_stale(model)


# ----------------------------------------------------------------------
# RecommenderService
# ----------------------------------------------------------------------


def exact_config(**overrides):
    """Inline serving with a small column block, so the blocked top-k
    folds many blocks."""
    base = dict(k=10, block_size=13, batching=False)
    base.update(overrides)
    return ServingConfig(**base)


def cold_reference(model, histories, k, exclude_seen=True, bf16=True):
    """The specification, one row per history: a full re-encode of each
    window, then ``full_sort_topk`` over the float32 table the bf16
    snapshot stands for (widened by :func:`bf16_oracle`) — or, with
    ``bf16=False``, over the model-dtype table."""
    windows = np.stack([pad_or_truncate(h, model.max_len) for h in histories])
    users, context = model.encode_users(windows), model.score_context()
    if bf16:
        users, context = users.astype(np.float32), widened_oracle(context)
    exclude = [np.unique(w[w > 0]) for w in windows] if exclude_seen else None
    return full_sort_topk(users @ context, k, exclude=exclude, exclude_padding=True)


#: served scores vs :func:`cold_reference`: the blocked float32 GEMMs
#: reassociate against the oracle's single GEMM
SCORE_RTOL, SCORE_ATOL = 1e-5, 1e-6


def assert_matches_reference(got, want):
    np.testing.assert_array_equal(got.ids, want.ids)
    np.testing.assert_allclose(got.scores, want.scores, rtol=SCORE_RTOL, atol=SCORE_ATOL)


class TestServiceCacheCorrectness:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_incremental_append_equals_cold_reencode(self, dataset, dtype):
        """The tentpole pin: sessions built by O(1) appends serve the
        same scores as a cold full re-encode of the raw history —
        bitwise in float64, tight tolerance in float32 — event after
        event, past the window-overflow point."""
        model = make_model(dataset, dtype=dtype)
        service = RecommenderService(model, exact_config())
        rng = np.random.default_rng(4)
        history = []
        for step in range(2 * MAX_LEN):
            item = int(rng.integers(1, dataset.num_items + 1))
            history.append(item)
            service.observe("u", item)
            got = service.recommend("u", k=8)
            # the incremental session state itself is bitwise: same
            # window, same encoded user vector as the cold path
            session = service.sessions.get("u")
            cold_window = pad_or_truncate(history, MAX_LEN)
            np.testing.assert_array_equal(session.window(), cold_window)
            cold_vec = model.encode_users(cold_window)[0]
            if dtype == "float64":
                np.testing.assert_array_equal(session.user_vec, cold_vec)
            else:
                np.testing.assert_allclose(
                    session.user_vec, cold_vec, rtol=1e-6, atol=1e-7
                )
            # served answers match the cold full-sort reference (both
            # score in float32 against the bf16 table; the blocked GEMMs
            # may reassociate)
            assert_matches_reference(got, cold_reference(model, [history], 8))

    def test_second_request_reuses_cached_vector(self, dataset):
        model = make_model(dataset)
        service = RecommenderService(model, exact_config())
        service.observe_history("u", [3, 7, 9])
        first = service.recommend("u")
        second = service.recommend("u")
        np.testing.assert_array_equal(first.ids, second.ids)
        stats = service.stats()
        assert stats["encodes"] == 1 and stats["user_vec_reuses"] == 1

    def test_parameter_update_invalidates_cache_and_table(self, dataset):
        """A trained step must be visible in the very next response."""
        model = make_model(dataset, dtype="float32")
        service = RecommenderService(model, exact_config())
        service.observe_history("u", [3, 7, 9])
        service.recommend("u")
        # mutate parameters through the supported path
        model.train()
        optimizer = Adam(model.parameters(), lr=0.05)
        inputs, targets = _tiny_batch(dataset)
        optimizer.zero_grad()
        model.recommendation_loss(inputs, targets).backward()
        optimizer.step()
        model.eval()
        got = service.recommend("u")
        assert_matches_reference(got, cold_reference(model, [[3, 7, 9]], service.config.k))
        stats = service.stats()
        assert stats["table_refreshes"] == 2  # initial snapshot + post-update
        assert stats["encodes"] == 2  # re-encoded under the new parameters

    def test_seen_items_never_recommended(self, dataset):
        model = make_model(dataset)
        service = RecommenderService(model, exact_config())
        rng = np.random.default_rng(9)
        for user in range(6):
            history = rng.integers(1, dataset.num_items + 1, size=10).tolist()
            service.observe_history(user, history)
            result = service.recommend(user)
            surfaced = set(result.ids[0][result.ids[0] >= 0].tolist())
            assert 0 not in surfaced
            assert not surfaced & set(history[-MAX_LEN:])

    def test_include_seen_config(self, dataset):
        model = make_model(dataset)
        service = RecommenderService(model, exact_config(exclude_seen=False, k=5))
        service.observe_history("u", [3, 3, 3, 3])
        result = service.recommend("u")
        want = cold_reference(model, [[3, 3, 3, 3]], 5, exclude_seen=False)
        assert_matches_reference(result, want)

    def test_lru_capacity_evicts_and_recovers(self, dataset):
        model = make_model(dataset)
        service = RecommenderService(model, exact_config(cache_capacity=2))
        for user in ("a", "b", "c"):
            service.observe_history(user, [3, 7])
            service.recommend(user)
        assert service.stats()["session_evictions"] >= 1
        # evicted user comes back cold and is simply re-encoded
        service.observe_history("a", [3, 7])
        result = service.recommend("a")
        assert_matches_reference(result, cold_reference(model, [[3, 7]], service.config.k))


class TestOutOfCatalogIds:
    """Ids outside ``1..num_items`` raise before the session or the
    popularity ranker changes.  Stored, one would reach the encode:
    SLIME4Rec's lookup fails and degrades every request of its batch;
    BERT4Rec's ``num_items + 1`` is its ``[mask]`` token and scores as
    a normal answer."""

    @pytest.mark.parametrize("name", ["SLIME4Rec", "BERT4Rec"])
    def test_bad_ids_are_rejected_before_anything_changes(self, dataset, name):
        model = make_model(dataset, name=name)
        service = RecommenderService(model, exact_config(k=5))
        bad = dataset.num_items + 1
        service.observe_history("a", [1, 2, 3])
        window = service.sessions.get("a").window().copy()
        counts = service._fallback_ranker.counts.copy()
        with pytest.raises(ValueError, match="item ids"):
            service.observe_history("b", [4, 5, bad])
        with pytest.raises(ValueError, match="item ids"):
            service.observe_history("a", [4, 5, bad])
        for item in (bad, 0):
            with pytest.raises(ValueError, match="item ids"):
                service.observe("a", item)
        assert "b" not in service.sessions
        np.testing.assert_array_equal(service.sessions.get("a").window(), window)
        np.testing.assert_array_equal(service._fallback_ranker.counts, counts)

    @pytest.mark.parametrize("name", ["SLIME4Rec", "BERT4Rec"])
    def test_a_rejected_history_cannot_degrade_its_batch(self, dataset, name):
        model = make_model(dataset, name=name)
        alone = RecommenderService(model, exact_config(k=5))
        alone.observe_history("a", [1, 2, 3])
        want = alone.recommend("a")
        service = RecommenderService(model, exact_config(k=5))
        service.observe_history("a", [1, 2, 3])
        with pytest.raises(ValueError):
            service.observe_history("b", [4, 5, dataset.num_items + 1])
        got_a, got_b = service.recommend_many(["a", "b"])
        assert not got_a.degraded and not got_b.degraded
        np.testing.assert_array_equal(got_a.ids, want.ids)
        assert service.stats()["model_errors"] == 0


class TestServicePathEquivalence:
    def test_fast_path_equals_naive_path_at_equal_precision(self, dataset):
        """Micro-batched + blocked + cached == the per-user full-sort
        oracle over the same widened bf16 table."""
        model = make_model(dataset, dtype="float32")
        fast = RecommenderService(model, exact_config(block_size=7))
        rng = np.random.default_rng(2)
        users = list(range(5))
        histories = [
            rng.integers(1, dataset.num_items + 1, size=12).tolist() for _ in users
        ]
        for user, history in zip(users, histories):
            fast.observe_history(user, history)
        fast.recommend_many(users)  # encodes and caches every user
        got = fast.recommend_many(users)  # served from cached vectors
        assert fast.stats()["user_vec_reuses"] == len(users)
        for history, fast_result in zip(histories, got):
            naive_result = cold_reference(model, [history], 10)
            np.testing.assert_array_equal(fast_result.ids, naive_result.ids)
            np.testing.assert_allclose(
                fast_result.scores, naive_result.scores, rtol=1e-6, atol=1e-7
            )

    @pytest.mark.parametrize("block_size", [1, 7, 8192])
    def test_bf16_table_equals_explicit_widened_reference(self, dataset, block_size):
        """The bf16 arm is exact w.r.t. scoring the explicitly widened
        bf16 table in float32, at every column-block width."""
        model = make_model(dataset, dtype="float32")
        service = RecommenderService(
            model, ServingConfig(k=6, batching=False, block_size=block_size)
        )
        service.observe_history("u", [2, 5, 8, 11])
        got = service.recommend("u")
        vec = model.encode_users(service.sessions.get("u").window()[None, :][0])
        users = vec.astype(np.float32).reshape(1, -1)
        scores = users @ widened_oracle(model.score_context())
        table = service.table
        blocks = np.concatenate(
            [
                table.score_block(users, start, start + block_size)
                for start in range(0, table.num_columns, block_size)
            ],
            axis=1,
        )
        np.testing.assert_allclose(blocks, scores, rtol=1e-6, atol=1e-7)
        want = full_sort_topk(
            scores, 6, exclude=[np.array([2, 5, 8, 11])], exclude_padding=True
        )
        np.testing.assert_array_equal(got.ids, want.ids)
        np.testing.assert_allclose(got.scores, want.scores, rtol=1e-6, atol=1e-7)

    def test_recommend_many_matches_singles(self, dataset):
        model = make_model(dataset, dtype="float64")
        batched = RecommenderService(model, exact_config())
        single = RecommenderService(model, exact_config())
        rng = np.random.default_rng(8)
        users = list(range(7))
        for user in users:
            history = rng.integers(1, dataset.num_items + 1, size=6).tolist()
            batched.observe_history(user, history)
            single.observe_history(user, history)
        for user, got in zip(users, batched.recommend_many(users)):
            want = single.recommend(user)
            np.testing.assert_array_equal(got.ids, want.ids)
            np.testing.assert_allclose(got.scores, want.scores, rtol=0, atol=1e-12)
        assert batched.stats()["batches"] == 1

    @pytest.mark.parametrize("name", ["GRU4Rec", "SASRec"])
    def test_other_architectures_serve_correctly(self, dataset, name):
        model = make_model(dataset, name=name)
        service = RecommenderService(model, exact_config(k=5))
        service.observe_history("u", [4, 9, 13])
        got = service.recommend("u")
        assert_matches_reference(got, cold_reference(model, [[4, 9, 13]], 5))

    def test_bf16_blocked_arm_keeps_trained_ranking_quality(self, dataset):
        """Fidelity: the served arm (bfloat16 table + blocked top-k) and
        the model-dtype full-sort oracle (float32 table) rank the
        held-out test targets of a briefly trained model equally well."""
        model = make_model(dataset, dtype="float32")
        Trainer(model, dataset, TrainConfig(epochs=3, batch_size=64, patience=0)).fit()
        model.eval()
        histories = [prefix for prefix, _ in dataset.test]
        targets = np.array([target for _, target in dataset.test])
        with RecommenderService(model, ServingConfig(k=10)) as service:
            for user, history in enumerate(histories):
                service.observe_history(user, history)
            served = service.recommend_many(range(len(histories)))
        ids = {
            "fast": np.concatenate([r.ids for r in served]),
            "reference": cold_reference(model, histories, 10, bf16=False).ids,
        }
        metrics = {}
        for name, top in ids.items():
            hit = top == targets[:, None]
            found = hit.any(axis=1)
            ndcg = np.where(found, 1.0 / np.log2(hit.argmax(axis=1) + 2), 0.0)
            metrics[name] = np.array([found.mean(), ndcg.mean()])
        assert metrics["reference"][0] > 0  # the model ranks some targets
        np.testing.assert_allclose(
            metrics["fast"], metrics["reference"], rtol=0, atol=FIDELITY_TOLERANCE
        )


class TestMicroBatching:
    def test_concurrent_requests_coalesce_and_match_inline(self, dataset):
        model = make_model(dataset)
        inline = RecommenderService(model, exact_config(k=6))
        service = RecommenderService(
            model,
            exact_config(k=6, batching=True, micro_batch=8, max_wait_ms=25.0),
        )
        rng = np.random.default_rng(13)
        users = list(range(8))
        for user in users:
            history = rng.integers(1, dataset.num_items + 1, size=9).tolist()
            inline.observe_history(user, history)
            service.observe_history(user, history)

        results = {}
        errors = []
        barrier = threading.Barrier(len(users))

        def worker(user):
            try:
                barrier.wait(timeout=30)
                results[user] = service.recommend(user)
            except BaseException as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(u,)) for u in users]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        service.close()
        assert not errors
        for user in users:
            want = inline.recommend(user)
            np.testing.assert_array_equal(results[user].ids, want.ids)
        stats = service.stats()
        assert stats["batched_requests"] == len(users)
        # coalescing happened: fewer batches than requests
        assert stats["batches"] < len(users)

    def test_counters_lose_no_concurrent_update(self, dataset):
        """``stats()`` reads ``requests`` and ``model_errors`` under
        ``_counter_lock``; their increments must hold it too.  More client
        threads than cores and a short switch interval give a lost
        read-modify-write the most chances to show."""
        model = make_model(dataset)
        service = RecommenderService(model, exact_config(k=3))

        def broken_encode(windows):
            raise RuntimeError("encoder down")

        model.encode_users = broken_encode  # every batch is a model error
        threads_n, rounds = 6, 150
        errors = []

        def client(index):
            try:
                for i in range(rounds):
                    service.recommend(f"u{index}-{i}")
                    service.recommend_many([f"a{index}-{i}", f"b{index}-{i}"])
            except BaseException as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=client, args=(n,)) for n in range(threads_n)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        stats = service.stats()
        assert stats["requests"] == threads_n * rounds * 3
        assert stats["model_errors"] == threads_n * rounds * 2
        assert stats["degraded"] == threads_n * rounds * 3

    def test_per_request_k_override_inside_one_batch(self, dataset):
        model = make_model(dataset)
        service = RecommenderService(model, exact_config())
        service.observe_history("u", [3, 7])
        assert service.recommend("u", k=3).ids.shape == (1, 3)
        assert service.recommend("u", k=1).ids.shape == (1, 1)
        with pytest.raises(ValueError, match="k must be"):
            service.recommend("u", k=0)

    def test_closed_service_rejects_new_requests(self, dataset):
        model = make_model(dataset)
        service = RecommenderService(model, exact_config(batching=True))
        service.observe_history("u", [3])
        service.recommend("u")
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.recommend("u")

    def test_cold_user_without_history_is_served(self, dataset):
        model = make_model(dataset)
        service = RecommenderService(model, exact_config(k=4))
        result = service.recommend("brand-new-user")
        assert result.ids.shape == (1, 4)
        assert (result.ids[0] != 0).all()


def count_calls(monkeypatch, obj, name):
    """Patch ``obj.name`` to count its calls; returns the count list."""
    calls = []
    real = getattr(obj, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(obj, name, counted)
    return calls


class TestNonFiniteTable:
    def test_refresh_table_rejects_non_finite_and_keeps_snapshot(
        self, dataset, monkeypatch
    ):
        model = make_model(dataset)
        with RecommenderService(model, exact_config(k=6)) as service:
            service.observe_history("u", [2, 5, 8])
            service.recommend("u")
            table = service.table
            snapshot = table.table.copy()
            poison_item_row(model, 3, np.nan)
            with pytest.raises(ValueError, match="non-finite"):
                service.refresh_table()
            assert service.table is table
            np.testing.assert_array_equal(table.table, snapshot)
            assert service.stats()["refresh_errors"] == 1
            # the failed version is not rebuilt on the request path...
            builds = count_calls(monkeypatch, model, "score_context")
            assert service.recommend("u").degraded
            assert builds == [] and service.stats()["refresh_errors"] == 1
            # ...but an explicit refresh always tries
            with pytest.raises(ValueError, match="non-finite"):
                service.refresh_table()
            assert builds == [1] and service.stats()["refresh_errors"] == 2

    def test_inline_refresh_rejects_non_finite_and_keeps_snapshot(self, dataset):
        model = make_model(dataset)
        with RecommenderService(model, ServingConfig(batching=False)) as service:
            service.observe_history("u", [2, 5, 8])
            service.recommend("u")
            table = service.table
            snapshot, version = table.table.copy(), table.version
            poison_item_row(model, 3, np.inf)
            got = service.recommend("u")  # stale -> inline refresh fails
            assert got.degraded  # on_error="degrade": answered by the fallback
            stats = service.stats()
            assert stats["refresh_errors"] == 1 and stats["model_errors"] == 1
            assert service.table is table and table.version == version
            np.testing.assert_array_equal(table.table, snapshot)

    def test_failed_version_is_built_once(self, dataset, monkeypatch):
        """A non-finite model is built once per parameter version, not
        once per batch; new finite parameters serve normally again."""
        model = make_model(dataset)
        with RecommenderService(model, exact_config(k=6)) as service:
            service.observe_history("u", [2, 5, 8])
            service.recommend("u")
            good = model.state_dict()
            poison_item_row(model, 3, np.nan)
            builds = count_calls(monkeypatch, model, "score_context")
            results = [service.recommend("u") for _ in range(5)]
            assert all(r.degraded for r in results)
            stats = service.stats()
            assert len(builds) == 1 and stats["refresh_errors"] == 1
            assert stats["model_errors"] == 5 and stats["degraded"] == 5
            model.load_state_dict(good)  # finite weights, next version
            got = service.recommend("u")
            assert not got.degraded and len(builds) == 2
            assert_matches_reference(got, cold_reference(model, [[2, 5, 8]], 6))
            assert service.stats()["table_refreshes"] == 2

    def test_degrade_on_stale_does_not_rebuild_failed_version(
        self, dataset, monkeypatch
    ):
        model = make_model(dataset)
        config = exact_config(k=6, degrade_on_stale=True)
        with RecommenderService(model, config) as service:
            service.observe_history("u", [2, 5, 8])
            service.recommend("u")
            poison_item_row(model, 3, np.nan)
            builds = count_calls(monkeypatch, model, "score_context")
            assert service.recommend("u").degraded  # starts the rebuild
            deadline = time.monotonic() + 10.0
            while service.stats()["refresh_errors"] < 1:
                assert time.monotonic() < deadline, "background rebuild never ran"
                time.sleep(0.01)
            assert all(service.recommend("u").degraded for _ in range(4))
            time.sleep(0.05)  # a rebuild started by mistake would land here
            assert len(builds) == 1 and service.stats()["refresh_errors"] == 1


class TestServingConfigValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="k must be"):
            ServingConfig(k=0)
        with pytest.raises(ValueError, match="micro_batch"):
            ServingConfig(micro_batch=0)
        with pytest.raises(ValueError, match="max_wait_ms"):
            ServingConfig(max_wait_ms=-1)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestServeCli:
    def test_replay_smoke(self, capsys):
        rc = serve_cli_main(
            [
                "--scale", "0.1", "--max-len", "16", "--hidden-dim", "16",
                "--requests", "40", "--concurrency", "2", "--quiet",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "p50" in out and "QPS" in out

    def test_adhoc_history_mode(self, capsys):
        rc = serve_cli_main(
            [
                "--scale", "0.1", "--max-len", "16", "--hidden-dim", "16",
                "--history", "3 7 9", "--k", "4", "--quiet", "--no-batching",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "history: [3, 7, 9]" in out
        assert out.count("item") == 4

    @pytest.mark.parametrize("field", sorted(REMOVED_FIELDS))
    def test_removed_reference_options_are_rejected(self, field):
        """The reference arms left the service: their config fields are
        unknown keywords and their CLI flags unknown options."""
        with pytest.raises(TypeError, match=field):
            ServingConfig(**{field: None})
        flag = REMOVED_FIELDS[field]
        if flag is not None:
            with pytest.raises(SystemExit):
                serve_cli.build_parser().parse_args([flag, "model"])


#: build flags shared by the training and serving CLI runs below
CLI_FLAGS = [
    "--model", "SLIME4Rec", "--dataset", "beauty", "--scale", "0.1",
    "--max-len", "8", "--hidden-dim", "16", "--dtype", "float32",
]


def run_cli(cli, argv):
    """``cli.main(argv)``; returns the model the CLI built."""
    built = []

    def spy(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    real = cli.build_baseline
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "build_baseline", spy)
        assert cli.main(argv) == 0
    return built[0]


def serve_checkpoint(path):
    return run_cli(
        serve_cli,
        [*CLI_FLAGS, "--checkpoint", str(path), "--history", "3 7 9", "--quiet",
         "--no-batching"],
    )


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """A two-epoch repro-train run: its store and the model it tested.

    At this learning rate validation peaks in epoch 1, so the weights
    the trainer tested (best-validation) differ from its live weights.
    """
    store = tmp_path_factory.mktemp("run")
    model = run_cli(
        train_cli,
        [*CLI_FLAGS, "--epochs", "2", "--patience", "0", "--lr", "0.03", "--quiet",
         "--checkpoint-dir", str(store)],
    )
    return store, model.state_dict()


def assert_state_bitwise(got, want):
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert np.array_equal(got[name], want[name]), name


class TestServeCheckpoint:
    def test_serves_the_weights_the_trainer_tested(self, trained_run, capsys):
        store, trained = trained_run
        groups = unpack_run_state(CheckpointStore(store).load_latest())
        assert any(
            not np.array_equal(groups["model"][name], groups["best"][name])
            for name in trained
        ), "best-validation weights equal the live ones; the pin is vacuous"
        served = serve_checkpoint(store)
        assert_state_bitwise(served.state_dict(), trained)
        assert "history: [3, 7, 9]" in capsys.readouterr().out

    def test_truncated_newest_entry_falls_back(self, trained_run, tmp_path):
        store = tmp_path / "run"
        shutil.copytree(trained_run[0], store)
        entries = CheckpointStore(store).entries()
        assert len(entries) == 2  # one save per epoch boundary
        previous = CheckpointStore(store)._verify_and_load(entries[0])
        newest = store / entries[-1]["file"]
        newest.write_bytes(newest.read_bytes()[:100])
        with pytest.warns(RuntimeWarning, match="falling back"):
            served = serve_checkpoint(store)
        assert_state_bitwise(served.state_dict(), unpack_run_state(previous)["weights"])

    def test_store_without_run_state_is_rejected(self, tmp_path):
        weights = {"w": np.zeros(3, dtype=np.float32)}
        CheckpointStore(tmp_path).save(weights, {"format": "weights-only"}, step=0)
        with pytest.raises(ValueError, match="not a run-state checkpoint"):
            serve_checkpoint(tmp_path)

    def test_plain_file_is_not_a_store(self, trained_run):
        newest = sorted(trained_run[0].glob("ckpt-*.npz"))[-1]
        with pytest.raises(FileNotFoundError, match=newest.name):
            serve_checkpoint(newest)
