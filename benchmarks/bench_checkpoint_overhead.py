#!/usr/bin/env python
"""Checkpoint-every-epoch vs never: what does crash safety cost?

The fault-tolerant runtime archives the complete run state (model
parameters, Adam moments, best-validation snapshot, every RNG stream,
history) into a rotated, checksummed store with atomic fsync-ed writes.
This benchmark answers the question that decides whether to leave it on
by default: how much does an epoch-boundary checkpoint add to training
wall time?

Two identical trainers run on the same dataset, interleaved epoch by
epoch (A/B/A/B, cancelling thermal/cache drift): one saves a full
run-state checkpoint at every epoch boundary, one never saves.  The
save time is *included* in the checkpointing variant's epoch wall time
— amortized checkpoint cost is exactly what the comparison is about —
and also reported separately.  Writes the comparison record to
``benchmarks/results/checkpoint_overhead.json``.  Timings are wall
clock on purpose: a save's cost is mostly ``fsync`` I/O, which process
CPU time does not count.

Usage::

    PYTHONPATH=src python benchmarks/bench_checkpoint_overhead.py
    PYTHONPATH=src python benchmarks/bench_checkpoint_overhead.py --epochs 5
"""

from __future__ import annotations

import argparse
import json
import subprocess
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

RESULTS_DIR = Path(__file__).resolve().parent / "results"
OUT_PATH = RESULTS_DIR / "checkpoint_overhead.json"


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
    parser.add_argument("--dataset", default="beauty")
    parser.add_argument("--scale", type=float, default=0.2)
    parser.add_argument("--max-len", type=int, default=32)
    parser.add_argument("--hidden-dim", type=int, default=64)
    parser.add_argument("--batch-size", type=int, default=128)
    parser.add_argument("--dtype", choices=("float32", "float64"), default="float32")
    parser.add_argument("--epochs", type=int, default=5,
                        help="interleaved epochs timed per variant")
    parser.add_argument("--keep-last", type=int, default=3)
    return parser


def make_trainer(args, dataset, checkpoint_dir):
    from repro.baselines import build_baseline
    from repro.train import TrainConfig, Trainer

    model = build_baseline(
        "SLIME4Rec", dataset,
        hidden_dim=args.hidden_dim, seed=0, dtype=args.dtype,
    )
    config = TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        checkpoint_dir=checkpoint_dir,
        keep_last=args.keep_last,
    )
    return Trainer(model, dataset, config, with_same_target=True)


def run_epoch(trainer, epoch):
    """One training epoch (plus the boundary save when a store exists).

    Returns ``(epoch_seconds, save_seconds)``; the save time is a
    subset of the epoch time, not an addition to it.
    """
    trainer.model.train()
    start = time.perf_counter()
    for batch in trainer.iterator.epoch():
        trainer._train_step(batch)
    trainer.history.losses.append(float(np.mean(trainer._epoch_losses)))
    trainer._epoch_losses = []
    trainer._epoch = epoch + 1
    save_s = 0.0
    if trainer.store is not None:
        save_start = time.perf_counter()
        trainer._save_run_state()
        save_s = time.perf_counter() - save_start
    return time.perf_counter() - start, save_s


def main() -> int:
    args = build_parser().parse_args()

    from repro.data.synthetic import load_preset

    dataset = load_preset(args.dataset, scale=args.scale, max_len=args.max_len)

    with tempfile.TemporaryDirectory(prefix="ckpt-bench-") as tmp:
        trainers = {
            "ckpt_never": make_trainer(args, dataset, None),
            "ckpt_epoch": make_trainer(args, dataset, tmp),
        }
        steps_per_epoch = len(trainers["ckpt_never"].iterator)

        for trainer in trainers.values():
            run_epoch(trainer, 0)  # untimed warmup (caches, allocator)

        epoch_s: dict[str, list[float]] = {name: [] for name in trainers}
        save_s: dict[str, list[float]] = {name: [] for name in trainers}
        for epoch in range(1, args.epochs + 1):  # interleaved A/B/A/B
            for name, trainer in trainers.items():
                seconds, save = run_epoch(trainer, epoch)
                epoch_s[name].append(seconds)
                save_s[name].append(save)

        archive_bytes = sum(
            p.stat().st_size for p in Path(tmp).glob("ckpt-*.npz")
        ) // max(1, len(list(Path(tmp).glob("ckpt-*.npz"))))

    summary = {}
    for name in trainers:
        per_step_ms = np.asarray(epoch_s[name]) / steps_per_epoch * 1000.0
        summary[name] = {
            "min_step_ms": round(float(per_step_ms.min()), 2),
            "median_step_ms": round(float(np.median(per_step_ms)), 2),
            "total_s": round(float(np.sum(epoch_s[name])), 2),
            "save_ms_median": round(float(np.median(save_s[name])) * 1000.0, 2),
        }
        print(f"[{name:>10}] min {summary[name]['min_step_ms']:8.2f} ms/step  "
              f"median {summary[name]['median_step_ms']:8.2f} ms/step  "
              f"save {summary[name]['save_ms_median']:7.2f} ms/epoch")
    overhead = (
        summary["ckpt_epoch"]["min_step_ms"] / summary["ckpt_never"]["min_step_ms"]
        - 1.0
    ) * 100.0
    print(f"epoch-boundary checkpointing overhead: {overhead:+.1f}% per step "
          f"({steps_per_epoch} steps/epoch, ~{archive_bytes / 1024:.0f} KiB/archive, "
          f"{args.dtype})")

    record = {
        "date": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "git": _git_revision(),
        "dtype": args.dtype,
        "dataset": args.dataset,
        "scale": args.scale,
        "max_len": args.max_len,
        "hidden_dim": args.hidden_dim,
        "batch_size": args.batch_size,
        "epochs": args.epochs,
        "steps_per_epoch": steps_per_epoch,
        "archive_bytes": int(archive_bytes),
        "model": "SLIME4Rec",
        "overhead_pct": round(overhead, 1),
        "variants": summary,
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    OUT_PATH.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"comparison record written to {OUT_PATH}")

    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
