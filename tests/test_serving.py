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
- **The fast path is the reference path.**  Micro-batched + blocked
  top-k results equal the naive per-request full-sort scoring arm
  exactly at equal table precision; the float16 table equals scoring
  against an explicitly float16-cast table; on a trained model the
  float16 + blocked arm and the float32 + full-sort arm agree on
  HR@10 / NDCG@10 within ``FIDELITY_TOLERANCE``.
- **Serving loads what training tested.**  ``repro-serve --checkpoint``
  on a ``repro-train --checkpoint-dir`` store restores the trained
  model's final weights bitwise, through the store's verified load.
- **Satellite pin**: `predict_scores` / the serving encode run under
  `no_grad` — evaluation scoring builds no autograd graph.
"""

import shutil
import threading

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
from repro.train import TrainConfig, Trainer
from repro.train import cli as train_cli
from repro.train.trainer import unpack_run_state
from repro.utils.io import CheckpointStore

MAX_LEN = 16
#: max |HR@10 / NDCG@10| gap between the float16 + blocked serving arm
#: and the float32 + full-sort reference on a trained model
FIDELITY_TOLERANCE = 0.01


@pytest.fixture(scope="module")
def dataset():
    return load_preset("beauty", scale=0.1, max_len=MAX_LEN)


def make_model(dataset, dtype="float32", name="SLIME4Rec", seed=0):
    return build_baseline(name, dataset, hidden_dim=16, seed=seed, dtype=dtype)


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
        with no_grad():
            want = model.logits(inputs).data
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
        np.testing.assert_allclose(
            model.encode_users(inputs, batch_size=4), want, rtol=1e-5, atol=1e-6
        )

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
    def test_fp16_snapshot_leaves_training_dtype_untouched(self, dataset):
        model = make_model(dataset, dtype="float32")
        table = ItemTable(model, dtype="float16")
        assert table.table.dtype == np.float16
        assert model.item_embedding.weight.dtype == np.float32
        assert table.compute_dtype == np.float32
        np.testing.assert_array_equal(
            table.table, model.score_context().astype(np.float16)
        )

    def test_model_dtype_snapshot(self, dataset):
        model = make_model(dataset, dtype="float64")
        table = ItemTable(model, dtype="model")
        assert table.table.dtype == np.float64
        with pytest.raises(ValueError, match="dtype"):
            ItemTable(model, dtype="int8")

    def test_blocked_scoring_matches_full_gemm(self, dataset):
        model = make_model(dataset, dtype="float32")
        for table_dtype in ("float16", "float32"):
            table = ItemTable(model, dtype=table_dtype, block_size=7)
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

    def test_staleness_detected_after_parameter_update(self, dataset):
        """score_context consumers can detect parameter updates."""
        model = make_model(dataset, dtype="float32")
        table = ItemTable(model, dtype="float16")
        assert not table.is_stale(model)
        optimizer = Adam(model.parameters())
        optimizer.zero_grad()
        optimizer.step()
        assert table.is_stale(model)
        table.refresh(model)
        assert not table.is_stale(model)
        assert table.refreshes == 2


# ----------------------------------------------------------------------
# RecommenderService
# ----------------------------------------------------------------------


def exact_config(**overrides):
    """Blocked path at model precision — isolates machinery from fp16."""
    base = dict(
        k=10, table_dtype="model", topk="blocked", block_size=13, batching=False
    )
    base.update(overrides)
    return ServingConfig(**base)


def cold_reference(model, history, k, exclude_seen=True):
    """The specification: full-history re-encode + full-sort scoring."""
    window = pad_or_truncate(history, model.max_len)
    scores = model.predict_scores(window[None, :], context=model.score_context())
    exclude = [np.unique(window[window > 0])] if exclude_seen else None
    return full_sort_topk(scores, k, exclude=exclude, exclude_padding=True)


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
            # served scores match the cold full-sort reference (the
            # blocked scoring GEMM may reassociate: 1-ulp tolerance in
            # float64, accumulated reassociation tolerance in float32)
            want = cold_reference(model, history, 8)
            if dtype == "float64":
                np.testing.assert_array_equal(got.ids, want.ids)
                np.testing.assert_allclose(got.scores, want.scores, rtol=0, atol=1e-14)
            else:
                np.testing.assert_allclose(
                    got.scores, want.scores, rtol=1e-5, atol=1e-6
                )

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
        want = cold_reference(model, [3, 7, 9], service.config.k)
        np.testing.assert_allclose(got.scores, want.scores, rtol=1e-5, atol=1e-6)
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
        want = cold_reference(model, [3, 3, 3, 3], 5, exclude_seen=False)
        np.testing.assert_array_equal(result.ids, want.ids)

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
        want = cold_reference(model, [3, 7], service.config.k)
        np.testing.assert_allclose(result.scores, want.scores, rtol=1e-5, atol=1e-6)


class TestServicePathEquivalence:
    def test_fast_path_equals_naive_path_at_equal_precision(self, dataset):
        """Micro-batched + blocked + cached == per-request full-sort."""
        model = make_model(dataset, dtype="float32")
        fast = RecommenderService(model, exact_config(block_size=7))
        naive = RecommenderService(
            model,
            ServingConfig(
                k=10,
                table_dtype="float32",
                topk="full_sort",
                batching=False,
                reuse_user_state=False,
            ),
        )
        rng = np.random.default_rng(2)
        users = list(range(5))
        for user in users:
            history = rng.integers(1, dataset.num_items + 1, size=12).tolist()
            fast.observe_history(user, history)
            naive.observe_history(user, history)
        got = fast.recommend_many(users)
        for user, fast_result in zip(users, got):
            naive_result = naive.recommend(user)
            np.testing.assert_array_equal(fast_result.ids, naive_result.ids)
            np.testing.assert_allclose(
                fast_result.scores, naive_result.scores, rtol=1e-6, atol=1e-7
            )
        assert naive.stats()["encodes"] == len(users)

    def test_fp16_table_equals_explicit_fp16_reference(self, dataset):
        """The fp16 arm is exact w.r.t. scoring a fp16-cast table in f32."""
        model = make_model(dataset, dtype="float32")
        service = RecommenderService(
            model, ServingConfig(k=6, table_dtype="float16", batching=False, block_size=5)
        )
        service.observe_history("u", [2, 5, 8, 11])
        got = service.recommend("u")
        vec = model.encode_users(service.sessions.get("u").window()[None, :][0])
        table16 = model.score_context().astype(np.float16).astype(np.float32)
        scores = vec.astype(np.float32) @ table16
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
        want = cold_reference(model, [4, 9, 13], 5)
        np.testing.assert_allclose(got.scores, want.scores, rtol=1e-5, atol=1e-6)

    def test_fp16_blocked_arm_keeps_trained_ranking_quality(self, dataset):
        """Fidelity: the fast arm (float16 table + blocked top-k) and the
        reference arm (float32 + full sort) rank the held-out test
        targets of a briefly trained model equally well."""
        model = make_model(dataset, dtype="float32")
        Trainer(model, dataset, TrainConfig(epochs=3, batch_size=64, patience=0)).fit()
        model.eval()
        histories = [prefix for prefix, _ in dataset.test]
        targets = np.array([target for _, target in dataset.test])
        arms = {
            "fast": ServingConfig(k=10, table_dtype="float16", topk="blocked"),
            "reference": ServingConfig(
                k=10, table_dtype="float32", topk="full_sort",
                batching=False, reuse_user_state=False,
            ),
        }
        metrics = {}
        for name, config in arms.items():
            with RecommenderService(model, config) as service:
                for user, history in enumerate(histories):
                    service.observe_history(user, history)
                results = service.recommend_many(range(len(histories)))
            hit = np.concatenate([r.ids for r in results]) == targets[:, None]
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


class TestServingConfigValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="k must be"):
            ServingConfig(k=0)
        with pytest.raises(ValueError, match="topk"):
            ServingConfig(topk="heap")
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
        [*CLI_FLAGS, "--epochs", "2", "--patience", "0", "--lr", "0.01", "--quiet",
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
