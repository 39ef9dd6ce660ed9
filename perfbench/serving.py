"""Serving workload: reads and writes on a 100k catalog.

It uses ``ServingConfig()`` defaults (float16 item table, blocked
top-k, micro-batching) in front of an untrained float32 SLIME4Rec, and
go through ``RecommenderService.observe_history``, ``observe``,
``recommend`` and ``stats`` only.

Load is a closed loop of :data:`~perfbench.host.CLIENT_THREADS` client
threads: ``recommend`` is synchronous, so each client waits for its
answer before sending the next request.  Client ``c`` owns the users
``u`` with ``u % CLIENT_THREADS == c`` and draws them Zipf(1.2), so no
other thread touches a session while its owner checks an answer.
"""

from __future__ import annotations

import bisect
import gc
import threading
import time
import traceback
from dataclasses import dataclass

import numpy as np

from perfbench import hostref
from perfbench.host import CLIENT_THREADS
from perfbench.stats import RECORD_PCTS, choose_tail, median, percentile, window_costs
from perfbench.tracing import Tracer

MAX_LEN = 50
HIDDEN_DIM = 64
USERS = 2000
USER_ZIPF = 1.2
ITEM_ZIPF = 1.1
#: users per ``recommend_many`` call while warming every session
WARM_CHUNK = 250
SETUP_REPS = 2
#: every CHECK_EVERY-th answer of each client is re-ranked by the
#: full-sort reference after the timed phase; prime to the write
#: period, so reads and writes are both checked
CHECK_EVERY = 7
#: requests pre-drawn per client (the stream wraps around if a fast
#: host exhausts it)
STREAM = 40_000
#: answered requests per window of the per-request CPU cost
CPU_WINDOW = 8
#: the load runs in segments of this many seconds
SEGMENT_S = 1.0


@dataclass(frozen=True)
class ServeSpec:
    num_items: int
    #: every write_every-th request of a client first observes a new
    #: event, so its window is re-encoded; the rest reuse cached vectors
    write_every: int


SPECS = {
    "serve_mixed_100k": ServeSpec(100_000, write_every=4),
}

COLLECTOR_SPANS = ("serve.encode", "serve.prepare", "serve.score",
                   "serve.topk_update", "serve.topk_result")


def _zipf_probs(n: int, a: float) -> np.ndarray:
    probs = np.arange(1, n + 1, dtype=np.float64) ** (-a)
    return probs / probs.sum()


class Inputs:
    """Histories and request streams drawn from the workload seed."""

    def __init__(self, spec: ServeSpec, seed: int) -> None:
        rng = np.random.default_rng(seed)
        item_by_rank = rng.permutation(spec.num_items) + 1
        item_probs = _zipf_probs(spec.num_items, ITEM_ZIPF)

        def items(size):
            return item_by_rank[rng.choice(spec.num_items, size=size, p=item_probs)]

        lengths = rng.integers(5, MAX_LEN + 1, size=USERS)
        flat = items(int(lengths.sum()))
        cuts = np.cumsum(lengths)[:-1]
        self.histories = np.split(flat, cuts)
        self.write_every = spec.write_every
        self.users, self.events = [], []
        for client in range(CLIENT_THREADS):
            own = np.arange(client, USERS, CLIENT_THREADS)
            by_rank = rng.permutation(own)
            probs = _zipf_probs(len(own), USER_ZIPF)
            self.users.append(by_rank[rng.choice(len(own), size=STREAM, p=probs)])
            self.events.append(items(STREAM))


class Setup:
    """One set-up: model, service (item table), sessions, warm-up."""

    def __init__(self, spec: ServeSpec, seed: int, inputs: Inputs) -> None:
        from repro.core import Slime4Rec, SlimeConfig
        from repro.serving import RecommenderService, ServingConfig

        self.phase_s = {}  # CPU seconds per set-up phase, all threads
        wall_start = time.perf_counter()
        start = time.process_time()
        self.model = Slime4Rec(SlimeConfig(
            num_items=spec.num_items, max_len=MAX_LEN, hidden_dim=HIDDEN_DIM,
            seed=seed, dtype="float32",
        ))
        self.phase_s["model"] = time.process_time() - start

        start = time.process_time()
        self.service = RecommenderService(self.model, ServingConfig())
        self.phase_s["table"] = time.process_time() - start

        start = time.process_time()
        for user, history in enumerate(inputs.histories):
            self.service.observe_history(user, history)
        self.phase_s["sessions"] = time.process_time() - start

        # Warm-up: encode and cache every session, then start the
        # collector with a few single requests.
        start = time.process_time()
        for lo in range(0, USERS, WARM_CHUNK):
            self.service.recommend_many(range(lo, min(lo + WARM_CHUNK, USERS)))
        for user in range(CLIENT_THREADS * 8):
            self.service.recommend(user)
        self.phase_s["warmup"] = time.process_time() - start
        gc.collect()
        self.setup_s = sum(self.phase_s.values())
        self.setup_wall_s = time.perf_counter() - wall_start

    def close(self) -> None:
        self.service.close()


class Load:
    """Closed-loop clients on one service, released one segment at a time.

    Between segments every client waits at a barrier, so the process
    does no serving work while the reference process has its turn.
    """

    def __init__(self, service, sessions, inputs: Inputs, tracer: Tracer) -> None:
        self.service, self.sessions, self.tracer = service, sessions, tracer
        self.start_barrier = threading.Barrier(CLIENT_THREADS + 1)
        self.end_barrier = threading.Barrier(CLIENT_THREADS + 1)
        self.box = {"deadline": 0.0, "stop": False}
        self.outs = [
            {"client": c, "attempted": 0, "latencies": [], "cpu_marks": [],
             "samples": [], "errors": 0, "degraded": 0}
            for c in range(CLIENT_THREADS)
        ]
        #: process CPU clock at each segment's start
        self.segment_cpu_starts = []
        self.cpu_s = 0.0
        self.wall_s = 0.0
        self.threads = [
            threading.Thread(
                target=self._client, name=f"perfbench-client-{c}",
                args=(inputs.users[c], inputs.events[c], inputs.write_every,
                      self.outs[c]),
            )
            for c in range(CLIENT_THREADS)
        ]
        for t in self.threads:
            t.start()

    def segment(self, seconds: float) -> None:
        """Let every client send requests for ``seconds``."""
        self.box["deadline"] = time.perf_counter() + seconds
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            self.start_barrier.wait(timeout=60.0)
            self.end_barrier.wait(timeout=seconds + 60.0)
        except threading.BrokenBarrierError:
            self._raise_crash()
            raise
        self.cpu_s += time.process_time() - c0
        self.wall_s += time.perf_counter() - w0
        self.segment_cpu_starts.append(c0)

    def stop(self) -> None:
        self.box["stop"] = True
        try:
            self.start_barrier.wait(timeout=60.0)
        except threading.BrokenBarrierError:
            pass
        for t in self.threads:
            t.join(timeout=60.0)
        alive = [t.name for t in self.threads if t.is_alive()]
        if alive:
            raise RuntimeError(f"client threads did not finish: {alive}")
        self._raise_crash()

    def _raise_crash(self) -> None:
        crashed = [out["crash"] for out in self.outs if "crash" in out]
        if crashed:
            raise RuntimeError(f"client thread failed:\n{crashed[0]}")

    def cpu_ms(self) -> list:
        """Process CPU ms per answered request, one list per segment with
        one sample per window of :data:`CPU_WINDOW` answers.  The clients
        read the process CPU clock (every thread: clients and collector)
        as each answer arrives."""
        segments = []
        for k, start in enumerate(self.segment_cpu_starts):
            marks = [m for out in self.outs for m in out["cpu_marks"][k]]
            segments.append([v * 1000.0 for v in window_costs(start, marks, CPU_WINDOW)])
        return segments

    def _client(self, users, events, write_every, out) -> None:
        try:
            self._client_loop(users, events, write_every, out)
        except Exception:  # reported by the main thread, which then fails the run
            out.setdefault("crash", traceback.format_exc())
            self.start_barrier.abort()
            self.end_barrier.abort()

    def _client_loop(self, users, events, write_every, out) -> None:
        """One closed-loop client: [observe], recommend, until each
        segment's deadline."""
        from repro.serving import ServingError

        service, sessions, tracer = self.service, self.sessions, self.tracer
        i = 0
        while True:
            self.start_barrier.wait()
            if self.box["stop"]:
                break
            deadline = self.box["deadline"]
            marks = []
            while time.perf_counter() < deadline:
                user = int(users[i % len(users)])
                t0 = time.perf_counter()
                try:
                    with tracer.span("serve.request", ident=(out["client"], i)):
                        if i % write_every == 0:
                            with tracer.span("serve.observe"):
                                service.observe(user, int(events[i % len(events)]))
                        with tracer.span("serve.recommend"):
                            result = service.recommend(user)
                except ServingError:
                    out["errors"] += 1
                    i += 1
                    continue
                out["latencies"].append((time.perf_counter() - t0) * 1000.0)
                marks.append(time.process_time())
                if result.degraded:
                    out["degraded"] += 1
                elif i % CHECK_EVERY == 0:
                    session = sessions[user]
                    out["samples"].append(
                        (result.ids[0].copy(), session.user_vec, session.seen()))
                i += 1
            out["cpu_marks"].append(marks)
            out["attempted"] = i
            self.end_barrier.wait()


def check_answers(service, samples) -> int:
    """Re-rank sampled answers with ``full_sort_topk`` over the same
    table's ``score_all`` and seen-item exclusion; returns mismatches."""
    from repro.evaluation.topk import full_sort_topk

    table = service.table
    k = service.config.k
    mismatches = 0
    for lo in range(0, len(samples), 64):
        chunk = samples[lo:lo + 64]
        users = table.prepare_users(np.stack([vec for _, vec, _ in chunk]))
        ref = full_sort_topk(table.score_all(users), k,
                             exclude=[seen for *_, seen in chunk],
                             exclude_padding=True)
        for row, (ids, _, _) in enumerate(chunk):
            if not np.array_equal(ids, ref.ids[row]):
                mismatches += 1
    return mismatches


def set_up(spec: ServeSpec, seed: int, inputs: Inputs):
    """``(setup, records)``: SETUP_REPS set-ups, one at a time, the last
    of which serves; ``records`` holds each set-up's times.  The
    reference process goes through the same sequence."""
    records = []
    setup = None
    for _ in range(SETUP_REPS):
        if setup is not None:
            setup.close()
            setup = None
            gc.collect()
        setup = Setup(spec, seed, inputs)
        records.append({"setup_s": setup.setup_s, "setup_wall_s": setup.setup_wall_s,
                        "phase_s": setup.phase_s})
    return setup, records


def run_workload(name: str, seed: int, seconds: float, tracer: Tracer,
                 digests: dict, reference=None) -> dict:
    """Set up, serve closed-loop for ``seconds``, check, report.

    ``digests`` is unused: serving answers are checked against the
    full-sort reference instead of earlier runs.  ``reference`` (a
    :class:`perfbench.hostref.Reference`, not yet started) takes a
    segment after each of the run's own and scales the time metrics;
    without it (traced runs) no time metric is reported.
    """
    spec = SPECS[name]
    inputs = Inputs(spec, seed)
    setup, records = set_up(spec, seed, inputs)
    setups = [r["setup_s"] for r in records]
    setup_wall = [r["setup_wall_s"] for r in records]
    phases = [r["phase_s"] for r in records]
    service = setup.service
    sessions = {user: service.sessions.get(user) for user in range(USERS)}
    try:
        if reference is not None:
            reference.start()
            reference.turn()  # the reference's set-up
        if tracer.enabled:
            install_serving_spans(tracer, setup.model)
        before = service.stats()
        load = Load(service, sessions, inputs, tracer)
        try:
            start = time.perf_counter()
            while time.perf_counter() - start < seconds:
                load.segment(SEGMENT_S)
                if reference is not None:
                    # one reference segment after every segment, so
                    # every segment of either process follows one of
                    # the other's
                    reference.turn()
        finally:
            load.stop()
        after = service.stats()
        if tracer.enabled:
            tracer.unwrap_all()
        ref = reference.finish() if reference is not None else None

        outs = load.outs
        latencies = [v for out in outs for v in out["latencies"]]
        samples = [s for out in outs for s in out["samples"]]
        attempted = sum(out["attempted"] for out in outs)
        errors = sum(out["errors"] for out in outs)
        degraded = sum(out["degraded"] for out in outs)
        mismatches = check_answers(service, samples)
    finally:
        setup.close()

    delta = {key: after[key] - before[key] for key in (
        "requests", "batches", "batched_requests", "encodes", "user_vec_reuses",
        "sheds", "deadline_expired", "degraded",
    )}
    segments = load.cpu_ms()
    cpu_ms = [v for samples in segments for v in samples]
    tail_pct = choose_tail(len(cpu_ms))
    answered = len(latencies) - degraded
    # unscaled, for the record
    cpu_metrics = {
        "setup_s": median(setups),
        "p50_ms": percentile(cpu_ms, 50.0),
        "tail_ms": percentile(cpu_ms, tail_pct),
        "throughput_per_s": answered / load.cpu_s,
    }
    record = {
        "load": f"closed loop, {CLIENT_THREADS} client threads (recommend is synchronous)",
        "samples": len(cpu_ms),
        "cpu_window": CPU_WINDOW,
        "segments": len(load.segment_cpu_starts),
        "requests": attempted,
        "answered": answered,
        "timed_s": load.wall_s,
        "timed_cpu_s": load.cpu_s,
        "tail_pct": tail_pct,
        "cpu_percentiles_ms": {f"p{q:g}": percentile(cpu_ms, q) for q in RECORD_PCTS},
        "wall_percentiles_ms": {f"p{q:g}": percentile(latencies, q)
                                for q in RECORD_PCTS},
        "wall_throughput_per_s": answered / load.wall_s,
        "checked_answers": len(samples),
        "mismatched_answers": mismatches,
        "errors": errors,
        "degraded": degraded,
        "stats_delta": delta,
        "table_nbytes": after["table_nbytes"],
        "setup_cpu_runs_s": setups,
        "setup_wall_runs_s": setup_wall,
        "cpu_metrics": cpu_metrics,
    }
    metrics = {}
    if ref is not None:
        metrics, record["reference"] = hostref.scale(
            name, segments, ref, cpu_metrics["setup_s"],
            cpu_metrics["throughput_per_s"], tail_pct)
    layers = {}
    if tracer.enabled:
        layers = layer_metrics(tracer, latencies, phases, delta, after)
    return {
        "attempted": attempted,
        "failed": errors + degraded + mismatches,
        "metrics": metrics,
        "layers": layers,
        "record": record,
    }


def reference_turns(name: str, seed: int, turns) -> dict:
    """The reference process's side of a serving run: set up on the
    first turn, then one segment of closed-loop load per turn."""
    spec = SPECS[name]
    setup = load = None
    records = []
    try:
        for _ in turns:
            if setup is None:
                inputs = Inputs(spec, seed)
                setup, records = set_up(spec, seed, inputs)
                service = setup.service
                sessions = {user: service.sessions.get(user) for user in range(USERS)}
                load = Load(service, sessions, inputs, Tracer(enabled=False))
                continue
            load.segment(SEGMENT_S)
    finally:
        if load is not None:
            load.stop()
        if setup is not None:
            setup.close()
    segments = load.cpu_ms() if load is not None else []
    return {"unit_ms": [median(samples) for samples in segments],
            "setup_s": median([r["setup_s"] for r in records])}


def install_serving_spans(tracer: Tracer, model) -> None:
    from repro.evaluation.topk import TopKAccumulator
    from repro.serving.table import ItemTable

    tracer.wrap(model, "encode_users", "serve.encode",
                count=lambda ids, *a, **k: int(np.shape(ids)[0]))
    tracer.wrap(ItemTable, "prepare_users", "serve.prepare",
                count=lambda users, *a: int(users.shape[0]))
    tracer.wrap(ItemTable, "score_block", "serve.score")
    tracer.wrap(TopKAccumulator, "update", "serve.topk_update")
    tracer.wrap(TopKAccumulator, "result", "serve.topk_result")


def layer_metrics(tracer: Tracer, latencies, phases, delta, after) -> dict:
    """Per-layer numbers of a traced serving run.

    The collector serves batches one after another; a batch is every
    collector span up to and including its ``TopKAccumulator.result``.
    A request belongs to the last batch that finished inside its
    ``recommend`` call, and its queue wait is that call's duration
    minus the batch's encode, score and top-k time.
    """
    spans = tracer.spans
    selfs = tracer.self_times()
    batches = []  # (end, encode_s, score_s, topk_s, rows)
    cur = {"encode": 0.0, "score": 0.0, "topk": 0.0, "rows": 0}
    collector = sorted(
        (row for row in spans if row[0] in COLLECTOR_SPANS and row[2] is not None),
        key=lambda row: row[1],
    )
    encoded_rows = 0
    for name, start, end, _parent, _ident, count, _thread in collector:
        dur = end - start
        if name == "serve.encode":
            cur["encode"] += dur
            encoded_rows += count or 0
        elif name in ("serve.prepare", "serve.score"):
            cur["score"] += dur
            if name == "serve.prepare":
                cur["rows"] = count or 0
        else:
            cur["topk"] += dur
            if name == "serve.topk_result":
                batches.append((end, cur["encode"], cur["score"], cur["topk"], cur["rows"]))
                cur = {"encode": 0.0, "score": 0.0, "topk": 0.0, "rows": 0}
    ends = [b[0] for b in batches]

    requests = {}
    for i, row in enumerate(spans):
        name, start, end, _parent, ident = row[:5]
        if end is None or not name.startswith("serve.") or name in COLLECTOR_SPANS:
            continue
        entry = requests.setdefault(ident, {})
        entry[name] = (start, end, selfs[i])
    per = {"observe": [], "queue_wait": [], "encode": [], "score": [], "topk": [],
           "unaccounted": []}
    for entry in requests.values():
        if "serve.recommend" not in entry or "serve.request" not in entry:
            continue
        r_start, r_end, _ = entry["serve.recommend"]
        j = bisect.bisect_right(ends, r_end) - 1
        if j < 0 or ends[j] < r_start:
            continue
        _, enc, score, topk, _rows = batches[j]
        # observe and encode are medians over the requests that ran
        # them (the writes, and requests whose batch encoded), so the
        # reads do not make them read 0
        if "serve.observe" in entry:
            o_start, o_end, _ = entry["serve.observe"]
            per["observe"].append(o_end - o_start)
        if enc > 0.0:
            per["encode"].append(enc)
        per["queue_wait"].append((r_end - r_start) - enc - score - topk)
        per["score"].append(score)
        per["topk"].append(topk)
        per["unaccounted"].append(entry["serve.request"][2])
    ms = {key: median([v * 1000.0 for v in values]) for key, values in per.items()}
    requests_n = max(delta["requests"], 1)
    out = {
        "serve.observe_ms": ms["observe"],
        "serve.queue_wait_ms": ms["queue_wait"],
        "serve.encode_ms": ms["encode"],
        "serve.score_ms": ms["score"],
        "serve.topk_ms": ms["topk"],
        "serve.batch_size": (sum(b[4] for b in batches) / len(batches)) if batches else 0.0,
        "serve.encode_rows": encoded_rows / requests_n,
        "serve.vec_reuse_share": delta["user_vec_reuses"] / requests_n,
        "serve.sheds": delta["sheds"],
        "serve.deadline_expired": delta["deadline_expired"],
        "serve.degraded": delta["degraded"],
        "trace.p50_ms": percentile(latencies, 50.0),
        "trace.unaccounted_ms": ms["unaccounted"],
        "mem.table_mb": after["table_nbytes"] / 2**20,
    }
    for key in ("model", "table", "sessions", "warmup"):
        out[f"setup.{key}_s"] = median([p[key] for p in phases])
    return out
