"""Synchronous online recommender service: ``user history -> top-k``.

:class:`RecommenderService` composes the serving subsystem's pieces
into one request path:

1. **Cached user state** (:mod:`repro.serving.session`): each user's
   recent-history window lives in a ring buffer; the encoded ``(d,)``
   user vector is cached on the session and reused until a new event
   or a parameter update invalidates it.
2. **Request micro-batching**: concurrent callers' dirty sessions are
   stacked into one ``(B, N)`` ``encode_users`` graph walk — the same
   batch-axis stacking the training-side ``encode_views`` uses — behind
   a max-batch / max-wait collector thread.  ``recommend`` stays a
   plain synchronous call; the batching is invisible to callers.
3. **Half-precision item table** (:mod:`repro.serving.table`): scoring
   runs against an eval-only float16 snapshot of the item embeddings,
   cast and GEMM'd block-by-block in float32.
4. **Blocked top-k** (:mod:`repro.evaluation.topk`): each score block
   folds straight into an ``argpartition`` candidate pool with
   seen-item masking; the full ``(B, V)`` score matrix and any full
   catalog sort never materialize.
5. **Fault tolerance** (:mod:`repro.serving.fallback`,
   :mod:`repro.utils.faults`): per-request deadlines, bounded-queue
   admission control (``block | shed | degrade``), degraded-mode
   popularity ranking when the model path fails, and collector-thread
   exception containment with a bounded restart budget.  Deterministic
   chaos trip points (``serve.encode`` / ``serve.score`` /
   ``serve.collect`` / ``serve.refresh``) live in these production
   paths so the failure story is testable, not aspirational.

Every piece degrades independently through :class:`ServingConfig` —
``batching=False`` serves inline in the caller's thread,
``reuse_user_state=False`` re-encodes every request,
``table_dtype="float32"`` / ``topk="full_sort"`` select the reference
arms — which is how ``tests/test_serving.py`` builds the reference the
fast arm is pinned against.  All robustness knobs default **off** (no
deadlines, unbounded queue, blocking admission), and with them off the
request path is byte-for-byte the classic fast arm.

Consistency contract: one batch is scored under one parameter version.
The service checks :meth:`ItemTable.is_stale` per batch and refreshes
the table before scoring; cached user vectors carry the version they
were encoded under and are re-encoded when it no longer matches, so a
response never mixes user vectors and item tables from different
parameter states (pinned by ``tests/test_serving.py``).  The batch
pipeline reads ``self._table`` exactly once under the lock and passes
that reference through scoring, so a concurrent double-buffered swap
(:meth:`refresh_table`) can never split a batch across two snapshots.

**Failure semantics** (pinned by ``tests/test_serving_faults.py``):

- A request with ``request_timeout_ms`` set *never* blocks past its
  deadline while queued on the collector: the caller's own wait is
  bounded by the deadline, and the collector drains expired requests
  with :class:`DeadlineExceeded` instead of encoding them.  (With
  ``batching=False`` the caller executes the pipeline synchronously in
  its own thread; deadlines are then enforced at batch entry only — a
  synchronous caller cannot abandon its own encode.)
- A model-path exception (encode, score, refresh) fails only its own
  batch: with ``on_error="degrade"`` (default) the batch is answered
  by the popularity fallback (results flagged ``degraded=True``); with
  ``"raise"`` the exception propagates to each waiter.
- A collector-loop exception — anything escaping the drain/serve
  cycle, the ``serve.collect`` kill point — is caught, propagated to
  that batch's waiters, counted, and the loop continues (a logical
  restart).  After ``max_collector_restarts`` such failures the
  service enters **permanent fallback**: every request from then on is
  served degraded without touching the model, until
  :meth:`exit_fallback` (e.g. after an operator swaps the model).
- A full queue is an explicit decision, not silent latency growth:
  ``admission_policy="shed"`` raises :class:`Overloaded` immediately,
  ``"degrade"`` answers from the fallback ranker, ``"block"`` (the
  default) waits — bounded by the request deadline when one is set.

The service owns one lock; session mutation, encoding and scoring all
run under it.  With batching enabled the collector thread is the only
model-path scorer, so callers merely enqueue and wait.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.evaluation.topk import TopKAccumulator, TopKResult, full_sort_topk
from repro.serving.fallback import PopularityRanker
from repro.serving.session import SessionCache
from repro.serving.table import ItemTable
from repro.utils import faults

__all__ = [
    "ServingConfig",
    "RecommenderService",
    "ServingError",
    "DeadlineExceeded",
    "Overloaded",
]

#: accepted admission policies for a full request queue
_ADMISSION_POLICIES = ("block", "shed", "degrade")

#: accepted model-path error policies
_ERROR_POLICIES = ("degrade", "raise")

#: caller-side wait bound when no deadline is configured — a watchdog
#: against a wedged collector, not a latency contract
_NO_DEADLINE_WAIT_S = 120.0


class ServingError(RuntimeError):
    """Base of the serving layer's typed request failures."""


class DeadlineExceeded(ServingError):
    """The request's deadline passed before a result was produced."""


class Overloaded(ServingError):
    """The request was shed by admission control (queue at capacity)."""


@dataclass
class ServingConfig:
    """Knobs of the serving path; defaults are the production-fast arm."""

    #: recommendations per request (overridable per call)
    k: int = 10
    #: item-table snapshot dtype: "float16" | "float32" | "float64" | "model"
    table_dtype: str = "float16"
    #: catalog column-block width for blocked scoring / top-k
    block_size: int = 8192
    #: "blocked" (argpartition pool) or "full_sort" (naive reference)
    topk: str = "blocked"
    #: stack up to this many concurrent requests into one encode
    micro_batch: int = 32
    #: how long the collector waits for a fuller batch (milliseconds)
    max_wait_ms: float = 2.0
    #: False serves inline in the caller's thread (no collector thread)
    batching: bool = True
    #: LRU bound on resident sessions (None = unbounded)
    cache_capacity: Optional[int] = None
    #: False re-encodes the window on every request (naive reference)
    reuse_user_state: bool = True
    #: mask items present in the user's window out of the results
    exclude_seen: bool = True
    #: rebuild the item table when model parameters changed
    auto_refresh: bool = True
    #: chunk very large encode batches (None = single stacked walk)
    encode_batch_size: Optional[int] = None
    # --- resilience knobs (all off by default) ------------------------
    #: end-to-end per-request deadline in ms (None = no deadline)
    request_timeout_ms: Optional[float] = None
    #: max time a request may sit on the collector queue in ms; expired
    #: requests are drained with DeadlineExceeded instead of encoded
    #: (None = only request_timeout_ms bounds queue time)
    queue_timeout_ms: Optional[float] = None
    #: bound on queued requests (None = unbounded); must be able to
    #: hold at least one full micro-batch
    queue_capacity: Optional[int] = None
    #: what a full queue does to a new request: "block" | "shed" | "degrade"
    admission_policy: str = "block"
    #: what a model-path exception does to its batch: "degrade" | "raise"
    on_error: str = "degrade"
    #: serve degraded (and refresh in the background) instead of
    #: rebuilding the item table synchronously on the request path
    degrade_on_stale: bool = False
    #: collector-loop failures tolerated before permanent fallback
    max_collector_restarts: int = 3

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.topk not in ("blocked", "full_sort"):
            raise ValueError(f"topk must be 'blocked' or 'full_sort', got {self.topk!r}")
        if self.micro_batch < 1:
            raise ValueError(f"micro_batch must be >= 1, got {self.micro_batch}")
        if self.max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {self.max_wait_ms}")
        for name in ("request_timeout_ms", "queue_timeout_ms"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0 or None, got {value}")
        if self.queue_capacity is not None and self.queue_capacity < self.micro_batch:
            raise ValueError(
                f"queue_capacity must be >= micro_batch "
                f"({self.micro_batch}) so a full batch can form, "
                f"got {self.queue_capacity}"
            )
        if self.admission_policy not in _ADMISSION_POLICIES:
            raise ValueError(
                f"admission_policy must be one of {_ADMISSION_POLICIES}, "
                f"got {self.admission_policy!r}"
            )
        if self.on_error not in _ERROR_POLICIES:
            raise ValueError(
                f"on_error must be one of {_ERROR_POLICIES}, got {self.on_error!r}"
            )
        if self.max_collector_restarts < 0:
            raise ValueError(
                f"max_collector_restarts must be >= 0, "
                f"got {self.max_collector_restarts}"
            )


class _Request:
    """One in-flight recommend call parked on the collector queue.

    Completion is first-writer-wins (:meth:`complete`): the collector
    fulfilling a batch and a caller abandoning its wait at the deadline
    can race, and exactly one of them must own the outcome.
    """

    __slots__ = (
        "user_id", "k", "event", "result", "error",
        "deadline", "queue_deadline", "_mutex",
    )

    def __init__(
        self,
        user_id,
        k: int,
        deadline: Optional[float] = None,
        queue_deadline: Optional[float] = None,
    ) -> None:
        self.user_id = user_id
        self.k = k
        self.event = threading.Event()
        self.result: Optional[TopKResult] = None
        self.error: Optional[BaseException] = None
        #: absolute monotonic end-to-end deadline (None = unbounded)
        self.deadline = deadline
        #: absolute monotonic queue-residency deadline (None = unbounded)
        self.queue_deadline = queue_deadline
        self._mutex = threading.Lock()

    def expiry(self) -> Optional[float]:
        """The earliest of the two deadlines, or None."""
        if self.deadline is None:
            return self.queue_deadline
        if self.queue_deadline is None:
            return self.deadline
        return min(self.deadline, self.queue_deadline)

    def expired(self, now: float) -> bool:
        expiry = self.expiry()
        return expiry is not None and now >= expiry

    def complete(
        self,
        result: Optional[TopKResult] = None,
        error: Optional[BaseException] = None,
    ) -> bool:
        """Deliver the outcome; False if another writer already did."""
        with self._mutex:
            if self.result is not None or self.error is not None:
                return False
            self.result = result
            self.error = error
        self.event.set()
        return True


class RecommenderService:
    """Serve top-k recommendations from a trained sequential model.

    The model is put in eval mode at construction (dropout off — the
    cached-state contract requires encoding to be deterministic) and
    must stay there; train it elsewhere and the next batch picks up the
    new parameters via the staleness check.

    ``num_items`` defaults to ``model.num_items``; recommendations are
    item ids in ``1..num_items`` (the padding column 0 is always
    excluded).
    """

    def __init__(self, model, config: Optional[ServingConfig] = None) -> None:
        self.model = model
        self.config = config or ServingConfig()
        model.eval()
        self.num_items = int(model.num_items)
        self._lock = threading.Lock()
        self._table = ItemTable(
            model, dtype=self.config.table_dtype, block_size=self.config.block_size
        )
        self.sessions = SessionCache(
            model.max_len, capacity=self.config.cache_capacity
        )
        #: always-warm popularity counts for degraded-mode answers
        self._fallback_ranker = PopularityRanker(self.num_items)
        # collector state (started lazily on the first batched request)
        self._queue: List[_Request] = []
        self._cond = threading.Condition()
        self._collector: Optional[threading.Thread] = None
        self._closed = False
        # double-buffered table refresh state
        self._refresh_mutex = threading.Lock()
        self._refresh_pending = False
        # degraded-mode state
        self._fallback_active = False
        self._fallback_reason: Optional[str] = None
        # counters (read via stats())
        self._requests = 0
        self._batches = 0
        self._batched_requests = 0
        self._encoded = 0
        self._vec_reuses = 0
        self._sheds = 0
        self._deadline_expired = 0
        self._degraded = 0
        self._model_errors = 0
        self._collector_failures = 0
        self._refresh_errors = 0

    # ------------------------------------------------------------------
    # Event ingestion
    # ------------------------------------------------------------------
    def observe(self, user_id, item_id: int) -> None:
        """Record one interaction event (O(1); no encode happens here)."""
        with self._lock:
            self.sessions.get_or_create(user_id).append(item_id)
            if 1 <= int(item_id) <= self.num_items:
                self._fallback_ranker.observe(item_id)

    def observe_history(self, user_id, item_ids: Iterable[int]) -> None:
        """Reset a user's session to a known history (cold start)."""
        items = np.asarray(
            item_ids if isinstance(item_ids, np.ndarray) else list(item_ids),
            dtype=np.int64,
        )
        with self._lock:
            self.sessions.get_or_create(user_id).replace_history(items)
            in_range = items[(items >= 1) & (items <= self.num_items)]
            self._fallback_ranker.observe_many(in_range)

    # ------------------------------------------------------------------
    # Recommendation
    # ------------------------------------------------------------------
    def _new_request(self, user_id, k: Optional[int]) -> _Request:
        k = int(k) if k is not None else self.config.k
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        now = time.monotonic()
        deadline = queue_deadline = None
        if self.config.request_timeout_ms is not None:
            deadline = now + self.config.request_timeout_ms / 1000.0
        if self.config.queue_timeout_ms is not None:
            queue_deadline = now + self.config.queue_timeout_ms / 1000.0
        return _Request(user_id, k, deadline=deadline, queue_deadline=queue_deadline)

    def recommend(self, user_id, k: Optional[int] = None) -> TopKResult:
        """Top-k items for one user; synchronous, thread-safe.

        With batching enabled the request parks on the collector queue
        and is served together with whatever concurrent requests arrive
        within the max-batch / max-wait window; otherwise it is served
        inline.  Returns a :class:`TopKResult` with ``(1, k')`` rows.

        Raises :class:`Overloaded` when admission control sheds the
        request, :class:`DeadlineExceeded` when ``request_timeout_ms``
        or ``queue_timeout_ms`` expires first, and whatever the model
        raised when ``on_error="raise"``.
        """
        request = self._new_request(user_id, k)
        self._requests += 1
        if not self.config.batching:
            self._serve_batch([request])
        else:
            enqueued = self._admit(request)
            if not enqueued:
                # admission answered without the collector (degrade
                # policy on a full queue, or permanent fallback)
                self._serve_fallback([request])
            else:
                self._await(request)
        if request.error is not None:
            raise request.error
        return request.result

    def recommend_many(
        self, user_ids: Sequence, k: Optional[int] = None
    ) -> List[TopKResult]:
        """Serve several users as one explicit batch (no collector).

        The offline counterpart of the micro-batcher: one stacked
        encode and one blocked scoring pass for the whole list.  Under
        ``on_error="degrade"`` a model-path fault yields degraded
        results instead of raising.
        """
        requests = [self._new_request(user_id, k) for user_id in user_ids]
        self._requests += len(requests)
        self._serve_batch(requests)
        for request in requests:
            if request.error is not None:
                raise request.error
        return [request.result for request in requests]

    # ------------------------------------------------------------------
    # Admission control and the caller-side wait
    # ------------------------------------------------------------------
    def _admit(self, request: _Request) -> bool:
        """Enqueue ``request`` for the collector, subject to capacity.

        Returns False when the request must be served degraded inline
        instead (full queue under the ``degrade`` policy, or the
        service is in permanent fallback).  Raises :class:`Overloaded`
        (``shed`` policy) or :class:`DeadlineExceeded` (``block``
        policy past the deadline).
        """
        config = self.config
        with self._cond:
            if self._closed:
                raise RuntimeError("RecommenderService is closed")
            if self._fallback_active:
                return False
            self._ensure_collector()
            capacity = config.queue_capacity
            while capacity is not None and len(self._queue) >= capacity:
                if config.admission_policy == "shed":
                    self._sheds += 1
                    raise Overloaded(
                        f"request queue at capacity ({capacity}); shed"
                    )
                if config.admission_policy == "degrade":
                    self._sheds += 1
                    return False
                # "block": wait for the collector to drain, bounded by
                # the request deadline when one is set
                now = time.monotonic()
                if request.expired(now):
                    self._deadline_expired += 1
                    raise DeadlineExceeded(
                        "deadline expired while blocked on admission"
                    )
                expiry = request.expiry()
                self._cond.wait(None if expiry is None else expiry - now)
                if self._closed:
                    raise RuntimeError("RecommenderService is closed")
                if self._fallback_active:
                    return False
            self._queue.append(request)
            self._cond.notify_all()
        return True

    def _await(self, request: _Request) -> None:
        """Block until the request completes, never past its deadline."""
        if request.deadline is None:
            timeout = _NO_DEADLINE_WAIT_S
        else:
            timeout = max(request.deadline - time.monotonic(), 0.0)
        if request.event.wait(timeout):
            return
        # The wait expired.  Pull the request off the queue if the
        # collector has not picked it up, then race it for completion —
        # if the collector finished in the meantime, use its outcome.
        with self._cond:
            try:
                self._queue.remove(request)
            except ValueError:
                pass
        if request.deadline is None:
            # no deadline configured: this is the watchdog path
            raise RuntimeError("serving request timed out (collector stuck?)")
        if request.complete(
            error=DeadlineExceeded(
                f"no result within {self.config.request_timeout_ms:.0f} ms"
            )
        ):
            with self._cond:
                self._deadline_expired += 1

    # ------------------------------------------------------------------
    # Collector thread
    # ------------------------------------------------------------------
    def _ensure_collector(self) -> None:  # lint: unlocked-ok(caller holds _cond)
        """Start (or restart) the collector thread; caller holds _cond."""
        if self._collector is not None and self._collector.is_alive():
            return
        if self._collector is not None and not self._closed:
            # The previous thread died without going through the
            # loop-level handler — catastrophic, but still recoverable:
            # count it against the restart budget and start a new one.
            self._collector_failures += 1
            if self._collector_failures > self.config.max_collector_restarts:
                self._enter_fallback_locked(
                    f"collector thread died {self._collector_failures} times"
                )
                return
        self._collector = threading.Thread(
            target=self._collector_loop, name="repro-serve-collector", daemon=True
        )
        self._collector.start()

    def _drain(self) -> Optional[List[_Request]]:
        """Wait for work and pull up to one micro-batch off the queue.

        Returns None when the service is closed and the queue empty
        (the collector's exit signal).
        """
        max_batch = self.config.micro_batch
        max_wait = self.config.max_wait_ms / 1000.0
        with self._cond:
            while not self._queue and not self._closed:
                self._cond.wait()
            if self._closed and not self._queue:
                return None
            deadline = time.monotonic() + max_wait
            while len(self._queue) < max_batch and not self._closed:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
            batch = self._queue[:max_batch]
            del self._queue[:max_batch]
            # wake admission blockers: queue space just freed up
            self._cond.notify_all()
        return batch

    def _collector_loop(self) -> None:
        """Drain/serve until closed; exceptions never kill the loop.

        Anything escaping a drain/serve cycle — including the
        ``serve.collect`` chaos kill point — is caught here, propagated
        to that batch's waiters, and counted; the loop then continues
        (a logical restart).  Past ``max_collector_restarts`` failures
        the service flips to permanent fallback and this loop keeps
        draining, answering everything from the popularity ranker.
        """
        while True:
            batch: List[_Request] = []
            try:
                drained = self._drain()
                if drained is None:
                    return
                batch = drained
                faults.trip("serve.collect")
                self._serve_batch(batch)
            except BaseException as exc:
                with self._cond:
                    self._collector_failures += 1
                    failures = self._collector_failures
                for request in batch:
                    request.complete(error=exc)
                if failures > self.config.max_collector_restarts:
                    self._enter_fallback(
                        f"collector failed {failures} times (last: {exc!r})"
                    )

    # ------------------------------------------------------------------
    # The batch pipeline
    # ------------------------------------------------------------------
    def _expire_requests(self, requests: List[_Request]) -> List[_Request]:
        """Fail already-expired requests; return the ones still live."""
        now = time.monotonic()
        live = []
        for request in requests:
            if request.expired(now):
                if request.complete(
                    error=DeadlineExceeded("deadline expired before serving")
                ):
                    with self._cond:
                        self._deadline_expired += 1
            else:
                live.append(request)
        return live

    def _serve_batch(self, requests: List[_Request]) -> None:
        """Encode (only) dirty sessions, score blocked, rank, fulfill.

        Never raises: outcomes land on each request (the inline and
        ``recommend_many`` entry points re-raise per-request errors).
        """
        live = self._expire_requests(requests)
        if not live:
            return
        with self._cond:
            fallback_active = self._fallback_active
        if fallback_active:
            self._serve_fallback(live)
            return
        try:
            table: Optional[ItemTable] = None
            with self._lock:
                table = self._table
                if self.config.auto_refresh and table.is_stale(self.model):
                    if self.config.degrade_on_stale:
                        # never rebuild on the request path: answer this
                        # batch degraded, refresh in the background
                        self._maybe_refresh_async()
                        table = None
                    else:
                        faults.trip("serve.refresh")
                        table.refresh(self.model)
                if table is not None:
                    version = table.version
                    sessions = [
                        self.sessions.get_or_create(r.user_id) for r in live
                    ]
                    reuse = self.config.reuse_user_state
                    dirty = [
                        i
                        for i, s in enumerate(sessions)
                        if not (reuse and s.is_fresh(version))
                    ]
                    self._vec_reuses += len(sessions) - len(dirty)
                    if dirty:
                        windows = np.stack([sessions[i].window() for i in dirty])
                        faults.trip("serve.encode")
                        vecs = self.model.encode_users(
                            windows, batch_size=self.config.encode_batch_size
                        )
                        self._encoded += len(dirty)
                        for row, i in enumerate(dirty):
                            sessions[i].store_vec(vecs[row], version)
                    users = table.prepare_users(
                        np.stack([s.user_vec for s in sessions])
                    )
                    exclude = (
                        [s.seen() for s in sessions]
                        if self.config.exclude_seen
                        else None
                    )
                    k = max(r.k for r in live)
                    faults.trip("serve.score")
                    result = self._rank(table, users, k, exclude)
                    self._batches += 1
                    self._batched_requests += len(live)
            if table is None:  # degraded-on-stale path
                self._serve_fallback(live)
                return
            for row, request in enumerate(live):
                request.complete(
                    result=TopKResult(
                        ids=result.ids[row : row + 1, : request.k],
                        scores=result.scores[row : row + 1, : request.k],
                    )
                )
        except BaseException as exc:
            self._model_errors += 1
            if self.config.on_error == "degrade":
                try:
                    self._serve_fallback(live)
                    return
                except BaseException as fallback_exc:  # pragma: no cover
                    exc = fallback_exc
            for request in live:
                request.complete(error=exc)

    def _serve_fallback(self, requests: List[_Request]) -> None:
        """Answer from the popularity ranker; no model in the path."""
        live = self._expire_requests(requests)
        if not live:
            return
        with self._lock:
            for request in live:
                session = self.sessions.get_or_create(request.user_id)
                exclude = session.seen() if self.config.exclude_seen else None
                result = self._fallback_ranker.topk(request.k, exclude=exclude)
                if request.complete(result=result):
                    self._degraded += 1

    def _rank(
        self,
        table: ItemTable,
        users: np.ndarray,
        k: int,
        exclude: Optional[List[np.ndarray]],
    ) -> TopKResult:
        if self.config.topk == "full_sort":
            scores = table.score_all(users)
            return full_sort_topk(scores, k, exclude=exclude, exclude_padding=True)
        acc = TopKAccumulator(users.shape[0], k)
        for start in range(0, table.num_columns, self.config.block_size):
            stop = min(start + self.config.block_size, table.num_columns)
            block = table.score_block(users, start, stop)
            acc.update(
                start, block, exclude=exclude, exclude_padding=True, writable=True
            )
        return acc.result()

    # ------------------------------------------------------------------
    # Degraded mode
    # ------------------------------------------------------------------
    def _enter_fallback_locked(  # lint: unlocked-ok(caller holds _cond)
        self, reason: str
    ) -> List[_Request]:
        """Flip to permanent fallback; caller holds _cond.  Returns the
        stranded queue for the caller to serve degraded off-lock."""
        if self._fallback_active:
            return []
        self._fallback_active = True
        self._fallback_reason = str(reason)
        stranded = self._queue[:]
        self._queue.clear()
        self._cond.notify_all()
        return stranded

    def _enter_fallback(self, reason: str) -> None:
        with self._cond:
            stranded = self._enter_fallback_locked(reason)
        if stranded:
            self._serve_fallback(stranded)

    def enter_fallback(self, reason: str = "manual") -> None:
        """Force permanent degraded mode (ops switch / benchmarks).

        Every subsequent request is answered by the popularity ranker
        without touching the model; queued requests are served degraded
        immediately.  Reversible via :meth:`exit_fallback`.
        """
        self._enter_fallback(reason)

    def exit_fallback(self) -> None:
        """Leave permanent fallback and reset the restart budget.

        For operators: call after the underlying fault is fixed (e.g.
        a fresh checkpoint was loaded); the next request goes back
        through the model path.
        """
        with self._cond:
            self._fallback_active = False
            self._fallback_reason = None
            self._collector_failures = 0

    @property
    def fallback_active(self) -> bool:
        with self._cond:
            return self._fallback_active

    @property
    def fallback_ranker(self) -> PopularityRanker:
        return self._fallback_ranker

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------
    def refresh_table(self) -> None:
        """Re-snapshot the item table, double-buffered.

        The expensive part — re-reading ``score_context()`` and casting
        the ``(d, V+1)`` table — happens **off the serving lock** into a
        fresh :class:`ItemTable`; only the O(1) reference swap takes the
        lock, so concurrent ``recommend`` traffic keeps being served
        from the old snapshot for the whole build.  A failed build
        (``serve.refresh`` faults, OOM, ...) is counted and re-raised;
        the old snapshot stays live either way.
        """
        with self._refresh_mutex:
            try:
                faults.trip("serve.refresh")
                new = self._table.rebuilt(self.model)
            except BaseException:
                self._refresh_errors += 1
                raise
            with self._lock:
                self._table = new

    def _maybe_refresh_async(self) -> None:  # lint: unlocked-ok(caller holds _lock)
        """Kick one background refresh; caller holds ``self._lock``."""
        if self._refresh_pending:
            return
        self._refresh_pending = True

        def worker() -> None:
            try:
                self.refresh_table()
            except BaseException:
                pass  # counted in refresh_errors; old snapshot stays live
            finally:
                with self._lock:
                    self._refresh_pending = False

        threading.Thread(
            target=worker, name="repro-serve-refresh", daemon=True
        ).start()

    @property
    def table(self) -> ItemTable:
        with self._lock:
            return self._table

    def stats(self) -> dict:
        """Serving counters: request/batch/cache plus failure accounting."""
        with self._lock:
            batches = max(self._batches, 1)
            return {
                "requests": self._requests,
                "batches": self._batches,
                "batched_requests": self._batched_requests,
                "mean_batch_size": self._batched_requests / batches,
                "encodes": self._encoded,
                "user_vec_reuses": self._vec_reuses,
                "sessions": len(self.sessions),
                "session_evictions": self.sessions.evictions,
                "table_refreshes": self._table.refreshes,
                "table_dtype": str(self._table.table.dtype),
                "table_nbytes": self._table.nbytes(),
                # resilience counters
                "sheds": self._sheds,
                "deadline_expired": self._deadline_expired,
                "degraded": self._degraded,
                "model_errors": self._model_errors,
                "collector_failures": self._collector_failures,
                "refresh_errors": self._refresh_errors,
                "fallback_active": self._fallback_active,
                "fallback_reason": self._fallback_reason,
            }

    def close(self) -> None:
        """Stop the collector thread; pending requests are still served."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        if self._collector is not None:
            self._collector.join(timeout=10.0)

    def __enter__(self) -> "RecommenderService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
