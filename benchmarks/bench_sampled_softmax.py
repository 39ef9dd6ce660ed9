#!/usr/bin/env python
"""Sampled-softmax vs full-softmax head at production catalog size.

The question this answers: at a given catalog size, how much does
bounding the prediction-layer *compute* (``train_num_negatives`` —
score the positive plus K sampled negatives) save over the full
softmax (``F.linear_cross_entropy`` over the whole ``(V+1, d)`` item
table)?  The full-catalog loss is ``O(B·V·d)`` per step in both
directions however the table is blocked; the sampled loss is
``O(B·K·d)``, independent of ``V``.

Runs one-optimizer-step timings of SLIME4Rec (``cl_weight=0`` so the
prediction layer dominates) on a synthetic ``--num-items`` catalog
(default 100k, no dataset build — random id batches at the training
geometry), interleaving the two variants A/B/A/B to cancel thermal /
cache drift, and writes the comparison record to
``benchmarks/results/sampled_softmax_step_time.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_sampled_softmax.py
    PYTHONPATH=src python benchmarks/bench_sampled_softmax.py --num-items 250000
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

RESULTS_DIR = Path(__file__).resolve().parent / "results"
OUT_PATH = RESULTS_DIR / "sampled_softmax_step_time.json"


def _git_revision() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
        return out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--num-items", type=int, default=100_000)
    parser.add_argument("--batch-size", type=int, default=128)
    parser.add_argument("--max-len", type=int, default=32)
    parser.add_argument("--hidden-dim", type=int, default=64)
    parser.add_argument("--num-negatives", type=int, default=512)
    parser.add_argument("--dtype", choices=("float32", "float64"), default="float32")
    parser.add_argument("--reps", type=int, default=7, help="timed steps per variant")
    return parser


def make_step(args, **knobs):
    """Build a model + one optimizer-step closure for a loss variant."""
    from repro.core import Slime4Rec, SlimeConfig
    from repro.data.batching import Batch
    from repro.optim import Adam

    config = SlimeConfig(
        num_items=args.num_items,
        max_len=args.max_len,
        hidden_dim=args.hidden_dim,
        cl_weight=0.0,  # isolate the prediction layer
        seed=0,
        dtype=args.dtype,
        **knobs,
    )
    model = Slime4Rec(config)
    model.train()
    rng = np.random.default_rng(0)
    inputs = rng.integers(1, args.num_items + 1, size=(args.batch_size, args.max_len))
    inputs[:, : args.max_len // 4] = 0
    batch = Batch(
        input_ids=inputs,
        targets=rng.integers(1, args.num_items + 1, size=args.batch_size),
    )
    optimizer = Adam(model.parameters())

    def step() -> float:
        optimizer.zero_grad()
        loss = model.loss(batch)
        loss.backward()
        optimizer.step()
        return float(loss.data)

    return step


def main() -> int:
    args = build_parser().parse_args()

    variants = {
        "full_ce": {},
        "sampled_ce": dict(
            train_num_negatives=args.num_negatives, negative_sampling="log_uniform"
        ),
    }
    steps = {name: make_step(args, **knobs) for name, knobs in variants.items()}

    losses = {name: step() for name, step in steps.items()}  # warmup, unbudgeted
    times: dict[str, list[float]] = {name: [] for name in variants}
    for _ in range(args.reps):  # interleaved A/B/A/B
        for name, step in steps.items():
            start = time.perf_counter()
            losses[name] = step()
            times[name].append((time.perf_counter() - start) * 1000.0)

    summary = {}
    for name in variants:
        t = np.asarray(times[name])
        summary[name] = {
            "min_ms": round(float(t.min()), 2),
            "median_ms": round(float(np.median(t)), 2),
            "final_loss": round(losses[name], 4),
        }
        print(f"[{name:>10}] min {summary[name]['min_ms']:8.1f} ms/step  "
              f"median {summary[name]['median_ms']:8.1f} ms/step  "
              f"loss {losses[name]:.4f}")
    speedup = summary["full_ce"]["min_ms"] / summary["sampled_ce"]["min_ms"]
    print(f"sampled-softmax speedup over the full-softmax head: {speedup:.2f}x "
          f"(V={args.num_items}, K={args.num_negatives}, {args.dtype})")

    record = {
        "date": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "git": _git_revision(),
        "host": {
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "dtype": args.dtype,
        "num_items": args.num_items,
        "batch_size": args.batch_size,
        "max_len": args.max_len,
        "hidden_dim": args.hidden_dim,
        "num_negatives": args.num_negatives,
        "reps": args.reps,
        "model": "SLIME4Rec",
        "speedup_sampled_over_full": round(speedup, 2),
        "variants": summary,
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    OUT_PATH.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"comparison record written to {OUT_PATH}")

    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
