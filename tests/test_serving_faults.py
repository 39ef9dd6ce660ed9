"""Serving-path fault tolerance (`repro.serving` resilience layer).

The load-bearing properties, each pinned deterministically via
:mod:`repro.utils.faults` trip points in the production request path:

- **No call outlives its deadline.**  Under any injected fault — a
  killed collector, a stalled encode, a table stuck refreshing — a
  request with ``request_timeout_ms`` set returns a result or a typed
  error within deadline + scheduling slack; nothing blocks unboundedly.
- **Overload is an explicit decision.**  A full queue sheds with
  :class:`~repro.serving.Overloaded`, degrades to the popularity
  fallback, or blocks bounded by the deadline — per ``admission_policy``.
- **Degraded mode is a correct ranking.**  The popularity fallback
  matches the :func:`full_sort_topk` reference on the count matrix
  (same tie rule), masks seen items exactly, and flags every result
  ``degraded=True``.
- **The collector survives its own death.**  A fault mid-batch fails
  only that batch's waiters; past the restart budget the service flips
  to permanent fallback and keeps answering.
- **Refresh never blocks serving.**  ``refresh_table`` builds the new
  snapshot off-lock (double-buffered) and swaps in O(1); a batch is
  scored under exactly one table reference.
"""

import threading
import time

import numpy as np
import pytest

from repro.baselines import build_baseline
from repro.data.synthetic import load_preset
from repro.evaluation.topk import full_sort_topk
from repro.optim import Adam
from repro.serving import (
    DeadlineExceeded,
    Overloaded,
    PopularityRanker,
    RecommenderService,
    ServingConfig,
)
from repro.serving.cli import main as serve_cli_main
from repro.utils.faults import (
    FaultInjector,
    InjectedCrash,
    InjectedIOError,
    inject,
)

MAX_LEN = 16

#: scheduling slack added to deadline bounds — generous for loaded CI
SLACK_MS = 1500.0


@pytest.fixture(scope="module")
def dataset():
    return load_preset("beauty", scale=0.1, max_len=MAX_LEN)


def make_model(dataset, dtype="float32", seed=0):
    return build_baseline("SLIME4Rec", dataset, hidden_dim=16, seed=seed, dtype=dtype)


def bump_params(model) -> None:
    """Mutate parameters through the supported path (ticks the version)."""
    optimizer = Adam(model.parameters())
    optimizer.zero_grad()
    optimizer.step()


def seed_users(service, dataset, n=8):
    for user_id in range(n):
        service.observe_history(user_id, dataset.sequences[user_id][-MAX_LEN:])
    return list(range(n))


def run_concurrent(service, user_ids, repeat=1):
    """Fire ``recommend`` from one thread per user; classify outcomes.

    Returns a list of ``(kind, payload, elapsed_ms)`` where kind is
    "ok" | "degraded" | "error" (typed serving/injected errors) |
    "unexpected" (anything else — the matrix asserts there are none).
    """
    outcomes = []
    lock = threading.Lock()

    def worker(uid):
        for _ in range(repeat):
            start = time.perf_counter()
            try:
                result = service.recommend(uid)
                kind = "degraded" if result.degraded else "ok"
                payload = result
            except (Overloaded, DeadlineExceeded, InjectedCrash, InjectedIOError) as exc:
                kind, payload = "error", exc
            except BaseException as exc:  # noqa: BLE001 — the assertion target
                kind, payload = "unexpected", exc
            elapsed = (time.perf_counter() - start) * 1000.0
            with lock:
                outcomes.append((kind, payload, elapsed))

    threads = [
        threading.Thread(target=worker, args=(uid,), daemon=True)
        for uid in user_ids
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return outcomes


def assert_valid_result(result, k, seen=None):
    """Shape + masking contract, shared by model-path and degraded results."""
    assert result.ids.shape == (1, k)
    assert result.scores.shape == (1, k)
    live = result.ids[0][result.ids[0] >= 0]
    assert 0 not in live  # padding id never surfaces
    assert len(np.unique(live)) == len(live)
    if seen is not None and len(seen):
        assert not np.isin(live, np.asarray(seen)).any()


# ----------------------------------------------------------------------
# PopularityRanker (degraded-mode ranking)
# ----------------------------------------------------------------------


class TestPopularityRanker:
    def test_validation(self):
        with pytest.raises(ValueError, match="num_items"):
            PopularityRanker(0)
        with pytest.raises(ValueError, match="refresh_every"):
            PopularityRanker(10, refresh_every=0)
        ranker = PopularityRanker(10)
        with pytest.raises(ValueError, match="item ids"):
            ranker.observe(0)
        with pytest.raises(ValueError, match="item ids"):
            ranker.observe(11)
        with pytest.raises(ValueError, match="item ids"):
            ranker.observe_many([3, 12])
        with pytest.raises(ValueError, match="k must be"):
            ranker.topk(0)

    def test_matches_full_sort_reference_on_counts(self):
        """Popularity order == the evaluation stack's tie rule, exactly."""
        rng = np.random.default_rng(3)
        num_items = 50
        ranker = PopularityRanker(num_items, refresh_every=1)
        events = rng.integers(1, num_items + 1, size=400)
        ranker.observe_many(events)
        for k in (1, 5, 17, 50):
            got = ranker.topk(k)
            ref = full_sort_topk(
                ranker.counts[None, :].astype(np.float64), k, exclude_padding=True
            )
            np.testing.assert_array_equal(got.ids, ref.ids)
            assert got.degraded and not ref.degraded

    def test_masking_is_exact_even_with_stale_order(self):
        ranker = PopularityRanker(20, refresh_every=1000)  # order never auto-refreshes
        ranker.observe_many(np.arange(1, 21))
        ranker.topk(5)  # builds the cached order once
        seen = np.array([1, 2, 3, 4, 5])
        result = ranker.topk(5, exclude=seen)
        assert not np.isin(result.ids[0], seen).any()
        ref = full_sort_topk(
            ranker.counts[None, :].astype(np.float64), 5, exclude=[seen]
        )
        np.testing.assert_array_equal(result.ids, ref.ids)

    def test_short_rows_pad_like_the_model_path(self):
        ranker = PopularityRanker(3)
        ranker.observe_many([1, 2, 3])
        result = ranker.topk(5, exclude=np.array([2]))
        assert list(result.ids[0][:2]) != [-1, -1]
        assert list(result.ids[0][2:]) == [-1, -1, -1]
        assert np.isneginf(result.scores[0][2:]).all()

    def test_lazy_rebuild_bounded_by_refresh_every(self):
        ranker = PopularityRanker(10, refresh_every=4)
        ranker.observe_many([1, 2, 3])
        ranker.topk(3)
        assert ranker.rebuilds == 1
        ranker.observe(5)  # 1 event since the build -> cached order reused
        ranker.topk(3)
        assert ranker.rebuilds == 1
        ranker.observe_many([5, 5, 5])  # hits the bound -> invalidated
        ranker.topk(3)
        assert ranker.rebuilds == 2

    def test_scores_are_popularity_counts(self):
        ranker = PopularityRanker(5)
        ranker.observe_many([4, 4, 4, 2, 2, 1])
        result = ranker.topk(3)
        np.testing.assert_array_equal(result.ids, [[4, 2, 1]])
        np.testing.assert_array_equal(result.scores, [[3.0, 2.0, 1.0]])


# ----------------------------------------------------------------------
# ServingConfig resilience-knob validation (satellite)
# ----------------------------------------------------------------------


class TestResilienceConfigValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="request_timeout_ms"):
            ServingConfig(request_timeout_ms=-1)
        with pytest.raises(ValueError, match="queue_timeout_ms"):
            ServingConfig(queue_timeout_ms=-0.5)
        with pytest.raises(ValueError, match="queue_capacity"):
            ServingConfig(micro_batch=8, queue_capacity=4)
        with pytest.raises(ValueError, match="admission_policy"):
            ServingConfig(admission_policy="panic")
        with pytest.raises(ValueError, match="on_error"):
            ServingConfig(on_error="ignore")
        with pytest.raises(ValueError, match="max_collector_restarts"):
            ServingConfig(max_collector_restarts=-1)

    def test_accepts_valid_resilience_config(self):
        config = ServingConfig(
            micro_batch=4,
            queue_capacity=4,
            request_timeout_ms=100.0,
            queue_timeout_ms=50.0,
            admission_policy="shed",
            on_error="raise",
            degrade_on_stale=True,
            max_collector_restarts=0,
        )
        assert config.queue_capacity == 4


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------


class TestDeadlines:
    def test_stalled_encode_times_out_at_the_deadline(self, dataset):
        """A delayed model path surfaces as DeadlineExceeded, not a hang."""
        model = make_model(dataset)
        config = ServingConfig(batching=True, request_timeout_ms=200.0)
        injector = FaultInjector().delay_at("serve.encode", seconds=1.5)
        with RecommenderService(model, config) as service:
            seed_users(service, dataset, 1)
            with inject(injector):
                start = time.perf_counter()
                with pytest.raises(DeadlineExceeded):
                    service.recommend(0)
                elapsed_ms = (time.perf_counter() - start) * 1000.0
            assert elapsed_ms < 200.0 + SLACK_MS
            assert service.stats()["deadline_expired"] == 1
            # the stalled batch finishes in the background; the service
            # recovers and serves normally afterwards
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                try:
                    result = service.recommend(0)
                    break
                except DeadlineExceeded:
                    continue
            assert not result.degraded

    def test_expired_queued_requests_are_drained_not_encoded(self, dataset):
        """The collector fails expired requests instead of serving them."""
        model = make_model(dataset)
        config = ServingConfig(
            batching=True, micro_batch=4, queue_timeout_ms=50.0,
            request_timeout_ms=5000.0,
        )
        # stall the collector *after* it drains the first batch, so the
        # requests sit past their queue deadline before being served
        injector = FaultInjector().delay_at("serve.collect", seconds=0.4)
        with RecommenderService(model, config) as service:
            seed_users(service, dataset, 4)
            with inject(injector):
                outcomes = run_concurrent(service, [0, 1, 2, 3])
            assert all(kind == "error" for kind, _, _ in outcomes)
            assert all(
                isinstance(payload, DeadlineExceeded) for _, payload, _ in outcomes
            )
            assert service.stats()["deadline_expired"] == 4
            assert not service.recommend(0).degraded  # recovered

    def test_no_deadline_by_default(self, dataset):
        model = make_model(dataset)
        with RecommenderService(model, ServingConfig(batching=True)) as service:
            seed_users(service, dataset, 1)
            result = service.recommend(0)
            assert not result.degraded
            assert service.stats()["deadline_expired"] == 0


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------


def overload_config(policy, request_timeout_ms=3000.0):
    return ServingConfig(
        batching=True,
        micro_batch=2,
        queue_capacity=2,
        admission_policy=policy,
        request_timeout_ms=request_timeout_ms,
    )


class TestAdmissionControl:
    def _flood(self, dataset, policy, request_timeout_ms=3000.0):
        model = make_model(dataset)
        config = overload_config(policy, request_timeout_ms=request_timeout_ms)
        # every batch stalls 300 ms in the collector -> the queue backs up
        injector = FaultInjector().delay_at("serve.collect", seconds=0.3, times=3)
        with RecommenderService(model, config) as service:
            users = seed_users(service, dataset, 8)
            with inject(injector):
                outcomes = run_concurrent(service, users)
            stats = service.stats()
        return outcomes, stats

    def test_shed_policy_raises_overloaded(self, dataset):
        outcomes, stats = self._flood(dataset, "shed")
        assert len(outcomes) == 8
        assert not any(kind == "unexpected" for kind, _, _ in outcomes)
        shed = [p for kind, p, _ in outcomes if isinstance(p, Overloaded)]
        assert shed and stats["sheds"] == len(shed)
        # shed calls return essentially immediately — overload is
        # explicit, not absorbed as latency
        assert all(
            ms < SLACK_MS
            for kind, p, ms in outcomes
            if isinstance(p, Overloaded)
        )
        served = [p for kind, p, _ in outcomes if kind == "ok"]
        assert served  # the queue's worth of requests still got answers

    def test_degrade_policy_serves_popularity_fallback(self, dataset):
        outcomes, stats = self._flood(dataset, "degrade")
        assert not any(kind in ("unexpected", "error") for kind, _, _ in outcomes)
        degraded = [p for kind, p, _ in outcomes if kind == "degraded"]
        assert degraded and stats["sheds"] == len(degraded)
        for result in degraded:
            assert_valid_result(result, 10)

    def test_block_policy_bounded_by_deadline(self, dataset):
        outcomes, _ = self._flood(dataset, "block", request_timeout_ms=500.0)
        assert not any(kind == "unexpected" for kind, _, _ in outcomes)
        # nothing — served, blocked-then-served, or expired — outlives
        # the deadline by more than scheduling slack
        assert all(ms < 500.0 + SLACK_MS for _, _, ms in outcomes)


# ----------------------------------------------------------------------
# Degraded mode
# ----------------------------------------------------------------------


class TestDegradedMode:
    def test_model_error_degrades_by_default(self, dataset):
        model = make_model(dataset)
        config = ServingConfig(batching=False)  # on_error="degrade" default
        injector = FaultInjector().crash_at("serve.encode")
        with RecommenderService(model, config) as service:
            seed_users(service, dataset, 1)
            seen = service.sessions.get_or_create(0).seen()
            with inject(injector):
                result = service.recommend(0)
            assert result.degraded
            assert_valid_result(result, 10, seen=seen)
            stats = service.stats()
            assert stats["model_errors"] == 1 and stats["degraded"] == 1
            assert not service.recommend(0).degraded  # fault gone -> model path

    def test_on_error_raise_propagates(self, dataset):
        model = make_model(dataset)
        config = ServingConfig(batching=False, on_error="raise")
        injector = FaultInjector().io_error_at("serve.encode")
        with RecommenderService(model, config) as service:
            seed_users(service, dataset, 1)
            with inject(injector):
                with pytest.raises(InjectedIOError):
                    service.recommend(0)
            assert service.stats()["model_errors"] == 1

    def test_degrade_on_stale_serves_fallback_then_recovers(self, dataset):
        model = make_model(dataset)
        config = ServingConfig(batching=False, degrade_on_stale=True)
        with RecommenderService(model, config) as service:
            seed_users(service, dataset, 1)
            assert not service.recommend(0).degraded  # fresh table
            bump_params(model)
            old_version = service.table.version
            result = service.recommend(0)  # stale -> degraded, refresh kicked
            assert result.degraded
            deadline = time.monotonic() + 10.0
            while service.table.version == old_version and time.monotonic() < deadline:
                time.sleep(0.01)
            assert service.table.version != old_version
            assert not service.recommend(0).degraded
            assert service.stats()["degraded"] >= 1

    def test_permanent_fallback_and_exit(self, dataset):
        model = make_model(dataset)
        with RecommenderService(model, ServingConfig(batching=True)) as service:
            seed_users(service, dataset, 2)
            service.enter_fallback("ops drill")
            assert service.fallback_active
            # the model path is provably not touched: a crash armed at
            # every encode never fires
            injector = FaultInjector().crash_at("serve.encode", times=1000)
            with inject(injector):
                for _ in range(3):
                    assert service.recommend(0).degraded
            assert injector.counts["serve.encode"] == 0
            assert service.stats()["fallback_reason"] == "ops drill"
            service.exit_fallback()
            assert not service.recommend(1).degraded

    def test_collector_restart_budget_then_permanent_fallback(self, dataset):
        model = make_model(dataset)
        config = ServingConfig(
            batching=True, max_collector_restarts=1, request_timeout_ms=5000.0
        )
        injector = FaultInjector().crash_at("serve.collect", times=5)
        with RecommenderService(model, config) as service:
            seed_users(service, dataset, 1)
            with inject(injector):
                # failures 1..2: each batch's waiter gets the crash
                with pytest.raises(InjectedCrash):
                    service.recommend(0)
                with pytest.raises(InjectedCrash):
                    service.recommend(0)
                # budget (1) exceeded -> permanent fallback, still armed
                # crashes can no longer reach anything
                assert service.fallback_active
                result = service.recommend(0)
            assert result.degraded
            stats = service.stats()
            assert stats["collector_failures"] == 2
            assert stats["fallback_active"]
            assert "collector failed" in stats["fallback_reason"]


# ----------------------------------------------------------------------
# Collector-orphan regression (satellite): a fault mid-batch must not
# strand concurrent in-flight requests
# ----------------------------------------------------------------------


class TestCollectorOrphanRegression:
    def test_collector_crash_fails_fast_and_recovers(self, dataset):
        model = make_model(dataset)
        config = ServingConfig(
            batching=True, micro_batch=8, max_wait_ms=20.0,
            request_timeout_ms=2000.0,
        )
        injector = FaultInjector().crash_at("serve.collect")
        with RecommenderService(model, config) as service:
            users = seed_users(service, dataset, 6)
            with inject(injector):
                outcomes = run_concurrent(service, users)
            assert len(outcomes) == 6
            assert not any(kind == "unexpected" for kind, _, _ in outcomes)
            # every in-flight request resolved within its deadline —
            # crashed-batch members fail fast with the crash, any
            # batch formed after the restart is served normally
            assert all(ms < 2000.0 + SLACK_MS for _, _, ms in outcomes)
            crashed = [p for _, p, _ in outcomes if isinstance(p, InjectedCrash)]
            assert crashed  # the injected fault actually hit a batch
            # one failure is within the default restart budget: the
            # collector lives on and the service serves normally
            assert not service.fallback_active
            assert not service.recommend(0).degraded
            assert service.stats()["collector_failures"] == 1


# ----------------------------------------------------------------------
# Chaos matrix (satellite): fault point x action x admission policy
# under concurrent load, deterministic via trip indices
# ----------------------------------------------------------------------

POINTS = ("serve.encode", "serve.score", "serve.collect", "serve.refresh")
ACTIONS = ("crash", "io_error", "delay")
POLICIES = ("block", "shed", "degrade")


def arm(injector, point, action):
    if action == "crash":
        return injector.crash_at(point, times=2)
    if action == "io_error":
        return injector.io_error_at(point, times=2)
    return injector.delay_at(point, seconds=0.05, times=2)


class TestChaosMatrix:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("action", ACTIONS)
    @pytest.mark.parametrize("point", POINTS)
    def test_cell(self, dataset, point, action, policy):
        model = make_model(dataset)
        config = ServingConfig(
            batching=True,
            micro_batch=4,
            max_wait_ms=10.0,
            queue_capacity=8,
            admission_policy=policy,
            request_timeout_ms=1500.0,
        )
        injector = arm(FaultInjector(), point, action)
        with RecommenderService(model, config) as service:
            users = seed_users(service, dataset, 8)
            # dirty the table so the in-batch serve.refresh point trips
            bump_params(model)
            with inject(injector):
                outcomes = run_concurrent(service, users)
            # --- invariants, uniform across all 36 cells ---
            assert len(outcomes) == 8
            unexpected = [p for kind, p, _ in outcomes if kind == "unexpected"]
            assert not unexpected, unexpected
            # no call outlives deadline + slack, whatever the fault did
            assert all(ms < 1500.0 + SLACK_MS for _, _, ms in outcomes)
            # every degraded answer honors the result contract
            for kind, payload, _ in outcomes:
                if kind in ("ok", "degraded"):
                    assert_valid_result(payload, 10)
            if point == "serve.encode" and action != "delay":
                # on_error="degrade": a failed encode is answered by the
                # fallback, so the fault provably reached that arm
                assert any(kind == "degraded" for kind, _, _ in outcomes)
            # the injector fired deterministically: only at the armed
            # point, at most its multiplicity
            assert 1 <= len(injector.fired) <= 2
            assert all(p == point for p, _ in injector.fired)
            # --- post-fault recovery: injector exhausted or removed ---
            if not service.fallback_active:
                deadline = time.monotonic() + 10.0
                result = None
                while time.monotonic() < deadline:
                    try:
                        result = service.recommend(0)
                        break
                    except (DeadlineExceeded, Overloaded):
                        continue
                assert result is not None and not result.degraded
            else:
                # only a collector kill can burn the restart budget
                assert point == "serve.collect" and action != "delay"
                assert service.recommend(0).degraded


# ----------------------------------------------------------------------
# Double-buffered table refresh (satellite)
# ----------------------------------------------------------------------


class TestDoubleBufferedRefresh:
    def test_refresh_never_blocks_serving(self, dataset):
        """A slow snapshot build must not add latency to the request path."""
        model = make_model(dataset)
        config = ServingConfig(batching=False)
        # the delay fires inside refresh_table's build, off the serving lock
        injector = FaultInjector().delay_at("serve.refresh", seconds=0.6)
        with RecommenderService(model, config) as service:
            seed_users(service, dataset, 4)
            for uid in range(4):
                service.recommend(uid)  # warm vectors: requests are pure scoring
            refreshes_before = service.stats()["table_refreshes"]
            version_before = service.table.version
            with inject(injector):
                refresher = threading.Thread(target=service.refresh_table)
                refresher.start()
                time.sleep(0.05)  # let the build enter its stall
                latencies = []
                while refresher.is_alive():
                    start = time.perf_counter()
                    result = service.recommend(int(np.random.default_rng(0).integers(4)))
                    latencies.append((time.perf_counter() - start) * 1000.0)
                    assert not result.degraded
                refresher.join()
            assert latencies, "refresh finished before any request was timed"
            # zero blocked requests: every call during the 600 ms build
            # completed in a fraction of it
            assert max(latencies) < 300.0
            assert service.table.version == version_before  # params unchanged
            assert service.stats()["table_refreshes"] == refreshes_before + 1

    def test_batch_scores_under_one_table_version(self, dataset):
        """A concurrent swap never splits a batch across two snapshots."""
        model = make_model(dataset)
        config = ServingConfig(batching=False)
        injector = FaultInjector().delay_at("serve.score", seconds=0.3)
        with RecommenderService(model, config) as service:
            seed_users(service, dataset, 1)
            reference = service.recommend(0)  # old-parameter answer
            results = []
            with inject(injector):
                def request():
                    results.append(service.recommend(0))

                t = threading.Thread(target=request)
                t.start()
                time.sleep(0.05)  # request is stalled mid-scoring
                bump_params(model)
                service.refresh_table()  # double-buffered swap, new params
                t.join()
            # the stalled batch was served entirely from the pre-swap
            # snapshot: identical to the old-parameter reference
            np.testing.assert_array_equal(results[0].ids, reference.ids)
            np.testing.assert_array_equal(results[0].scores, reference.scores)
            # and the swap took: the next response uses the new snapshot
            assert service.table.is_stale(model) is False

    def test_failed_refresh_keeps_old_snapshot_live(self, dataset):
        model = make_model(dataset)
        injector = FaultInjector().io_error_at("serve.refresh")
        with RecommenderService(model, ServingConfig(batching=False)) as service:
            seed_users(service, dataset, 1)
            reference = service.recommend(0)
            version = service.table.version
            with inject(injector):
                with pytest.raises(InjectedIOError):
                    service.refresh_table()
            assert service.table.version == version
            assert service.stats()["refresh_errors"] == 1
            np.testing.assert_array_equal(service.recommend(0).ids, reference.ids)


# ----------------------------------------------------------------------
# Stats and CLI surface
# ----------------------------------------------------------------------


class TestStatsAndCli:
    def test_resilience_counters_present_and_zero_at_defaults(self, dataset):
        model = make_model(dataset)
        with RecommenderService(model, ServingConfig(batching=False)) as service:
            seed_users(service, dataset, 1)
            service.recommend(0)
            stats = service.stats()
            for key in (
                "sheds", "deadline_expired", "degraded", "model_errors",
                "collector_failures", "refresh_errors",
            ):
                assert stats[key] == 0, key
            assert stats["fallback_active"] is False
            assert stats["fallback_reason"] is None

    def test_cli_resilience_flags_smoke(self, capsys):
        code = serve_cli_main(
            [
                "--scale", "0.05", "--requests", "40", "--concurrency", "2",
                "--quiet", "--request-timeout-ms", "5000",
                "--queue-capacity", "32", "--admission-policy", "shed",
                "--degrade-on-stale",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "latency p50" in out

    def test_cli_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            serve_cli_main(["--admission-policy", "panic"])
