"""Command-line serving entry point (``repro-serve``).

Builds a model (optionally restoring the weights a ``repro-train``
run tested from its ``--checkpoint-dir`` store), stands up a
:class:`~repro.serving.RecommenderService`, seeds it with the
dataset's user histories, and then either:

- answers one ad-hoc query (``--history "3 17 42"``), or
- replays a Zipfian request stream and reports per-request latency
  percentiles and QPS (the default).

Usage::

    python -m repro.serving.cli --model SLIME4Rec --dataset beauty \
        --checkpoint out/run1 --requests 2000 --concurrency 4

    python -m repro.serving.cli --history "3 17 42" --k 5

The replay loop models online traffic: each request picks a user from
a Zipf popularity law, appends one new interaction event to their
session (``observe``), then asks for top-k (``recommend``) — so the
cached-user-state path is exercised exactly as production would: every
request dirties one session and reuses the rest.
"""

from __future__ import annotations

import argparse
import sys
import threading
import time

import numpy as np

from repro.baselines import BASELINE_NAMES, build_baseline
from repro.data.synthetic import PRESETS, load_preset
from repro.serving.service import (
    DeadlineExceeded,
    Overloaded,
    RecommenderService,
    ServingConfig,
)
from repro.train.trainer import unpack_run_state
from repro.utils.io import CheckpointStore

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve", description="Serve top-k recommendations online."
    )
    parser.add_argument("--model", choices=BASELINE_NAMES, default="SLIME4Rec")
    parser.add_argument("--dataset", choices=sorted(PRESETS), default="beauty")
    parser.add_argument("--scale", type=float, default=0.3)
    parser.add_argument("--max-len", type=int, default=24)
    parser.add_argument("--hidden-dim", type=int, default=32)
    parser.add_argument("--num-layers", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--dtype", choices=("float32", "float64"), default="float32",
        help="model compute precision (serving default float32)",
    )
    parser.add_argument(
        "--checkpoint", metavar="DIR",
        help="repro-train --checkpoint-dir store to restore weights from: the "
        "newest verifiable entry's best-validation weights (its live weights "
        "when the run never validated); build flags and --dtype must match "
        "the training run",
    )
    # serving knobs
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument(
        "--table-dtype", choices=("float16", "float32", "float64", "model"),
        default="float16", help="eval-only item-table precision (default float16)",
    )
    parser.add_argument(
        "--topk", choices=("blocked", "full_sort"), default="blocked",
        help="top-k strategy (full_sort is the naive reference)",
    )
    parser.add_argument("--block-size", type=int, default=8192)
    parser.add_argument("--micro-batch", type=int, default=32)
    parser.add_argument("--max-wait-ms", type=float, default=2.0)
    parser.add_argument(
        "--no-batching", action="store_true",
        help="serve inline in the caller's thread (no collector)",
    )
    parser.add_argument(
        "--cache-capacity", type=int, default=None,
        help="LRU bound on resident user sessions (default unbounded)",
    )
    parser.add_argument(
        "--include-seen", action="store_true",
        help="do not mask the user's own window items from results",
    )
    # resilience knobs (all off by default, like ServingConfig)
    parser.add_argument(
        "--request-timeout-ms", type=float, default=None,
        help="end-to-end per-request deadline in ms (default: no deadline)",
    )
    parser.add_argument(
        "--queue-timeout-ms", type=float, default=None,
        help="max queue residency in ms before DeadlineExceeded "
        "(default: only the request deadline bounds it)",
    )
    parser.add_argument(
        "--queue-capacity", type=int, default=None,
        help="bound on queued requests (default unbounded); admission "
        "control kicks in when full",
    )
    parser.add_argument(
        "--admission-policy", choices=("block", "shed", "degrade"),
        default="block",
        help="full-queue behavior: block (wait), shed (raise Overloaded) "
        "or degrade (popularity fallback)",
    )
    parser.add_argument(
        "--on-error", choices=("degrade", "raise"), default="degrade",
        help="model-path exception behavior: degrade (popularity "
        "fallback, default) or raise to the caller",
    )
    parser.add_argument(
        "--degrade-on-stale", action="store_true",
        help="serve degraded and refresh the item table in the "
        "background instead of rebuilding it on the request path",
    )
    # workload
    parser.add_argument(
        "--history", metavar="IDS",
        help='serve one ad-hoc request for this space-separated item-id '
        'history (e.g. "3 17 42") and exit',
    )
    parser.add_argument("--requests", type=int, default=1000)
    parser.add_argument("--concurrency", type=int, default=4)
    parser.add_argument(
        "--zipf-a", type=float, default=1.2,
        help="Zipf exponent of the user-popularity replay (default 1.2)",
    )
    parser.add_argument("--quiet", action="store_true")
    return parser


def _build_service(args, model) -> RecommenderService:
    config = ServingConfig(
        k=args.k,
        table_dtype=args.table_dtype,
        block_size=args.block_size,
        topk=args.topk,
        micro_batch=args.micro_batch,
        max_wait_ms=args.max_wait_ms,
        batching=not args.no_batching,
        cache_capacity=args.cache_capacity,
        exclude_seen=not args.include_seen,
        request_timeout_ms=args.request_timeout_ms,
        queue_timeout_ms=args.queue_timeout_ms,
        queue_capacity=args.queue_capacity,
        admission_policy=args.admission_policy,
        on_error=args.on_error,
        degrade_on_stale=args.degrade_on_stale,
    )
    return RecommenderService(model, config)


def _zipf_users(num_users: int, count: int, a: float, rng) -> np.ndarray:
    """Zipf-popular user indices in ``[0, num_users)`` (rank-frequency)."""
    ranks = np.arange(1, num_users + 1, dtype=np.float64)
    probs = ranks ** (-a)
    probs /= probs.sum()
    order = rng.permutation(num_users)  # which user gets which popularity rank
    return order[rng.choice(num_users, size=count, p=probs)]


def _replay(args, service: RecommenderService, dataset, out) -> dict:
    rng = np.random.default_rng(args.seed + 77)
    num_users = dataset.num_users
    for user_id, seq in enumerate(dataset.sequences):
        service.observe_history(user_id, seq[-dataset.max_len :])
    users = _zipf_users(num_users, args.requests, args.zipf_a, rng)
    events = rng.integers(1, dataset.num_items + 1, size=args.requests)

    latencies = np.zeros(args.requests)
    shed = [0]
    expired = [0]
    degraded = [0]
    cursor = [0]
    cursor_lock = threading.Lock()

    def worker() -> None:
        while True:
            with cursor_lock:
                i = cursor[0]
                if i >= args.requests:
                    return
                cursor[0] += 1
            service.observe(int(users[i]), int(events[i]))
            start = time.perf_counter()
            try:
                result = service.recommend(int(users[i]))
            except Overloaded:
                latencies[i] = np.nan
                with cursor_lock:
                    shed[0] += 1
                continue
            except DeadlineExceeded:
                latencies[i] = np.nan
                with cursor_lock:
                    expired[0] += 1
                continue
            latencies[i] = (time.perf_counter() - start) * 1000.0
            if result.degraded:
                with cursor_lock:
                    degraded[0] += 1

    start = time.perf_counter()
    threads = [
        threading.Thread(target=worker, daemon=True)
        for _ in range(max(args.concurrency, 1))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start

    answered = int(np.isfinite(latencies).sum())
    summary = {
        "requests": args.requests,
        "concurrency": args.concurrency,
        "p50_ms": float(np.nanpercentile(latencies, 50)) if answered else float("nan"),
        "p99_ms": float(np.nanpercentile(latencies, 99)) if answered else float("nan"),
        "qps": answered / wall if wall else 0.0,
        "shed": shed[0],
        "deadline_expired": expired[0],
        "degraded": degraded[0],
    }
    print(
        f"replay: {summary['requests']} requests, concurrency "
        f"{summary['concurrency']}, zipf a={args.zipf_a}",
        file=out,
    )
    print(
        f"latency p50 {summary['p50_ms']:.2f} ms  p99 {summary['p99_ms']:.2f} ms  "
        f"throughput {summary['qps']:.0f} QPS",
        file=out,
    )
    if summary["shed"] or summary["deadline_expired"] or summary["degraded"]:
        print(
            f"shed {summary['shed']}  deadline expired "
            f"{summary['deadline_expired']}  degraded {summary['degraded']}",
            file=out,
        )
    stats = service.stats()
    print(
        f"batches {stats['batches']} (mean size {stats['mean_batch_size']:.1f})  "
        f"encodes {stats['encodes']}  vec reuses {stats['user_vec_reuses']}  "
        f"table {stats['table_dtype']} ({stats['table_nbytes'] / 1e6:.1f} MB)",
        file=out,
    )
    return summary


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = sys.stdout

    dataset = load_preset(args.dataset, scale=args.scale, max_len=args.max_len)
    model = build_baseline(
        args.model,
        dataset,
        hidden_dim=args.hidden_dim,
        num_layers=args.num_layers,
        seed=args.seed,
        dtype=args.dtype,
    )
    if args.checkpoint:
        snapshot = CheckpointStore(args.checkpoint).load_latest()
        model.load_state_dict(unpack_run_state(snapshot)["weights"])
        if not args.quiet:
            print(f"restored weights from {snapshot['path']}", file=out)
    if not args.quiet:
        print(dataset.stats().as_row(), file=out)
        print(f"{args.model}: {model.num_parameters():,} parameters", file=out)

    with _build_service(args, model) as service:
        if args.history:
            history = [int(tok) for tok in args.history.split()]
            service.observe_history("adhoc", history)
            result = service.recommend("adhoc", k=args.k)
            ids = [int(i) for i in result.ids[0] if i >= 0]
            scores = [float(s) for s in result.scores[0][: len(ids)]]
            print(f"history: {history}", file=out)
            for rank, (item, score) in enumerate(zip(ids, scores), start=1):
                print(f"  {rank:>2}. item {item:<8} score {score:+.4f}", file=out)
            return 0
        _replay(args, service, dataset, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
