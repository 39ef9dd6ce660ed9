"""Command-line training entry point.

Usage::

    python -m repro.train.cli --model SLIME4Rec --dataset beauty \
        --scale 0.3 --epochs 10 --max-len 24 --hidden-dim 32 \
        --checkpoint-dir out/run1

Trains one model on one synthetic preset (or a real interaction file
via ``--data-file``) and prints validation history plus test metrics.

``--checkpoint-dir`` is the run's one artifact: a rotated, checksummed
full-run-state store written at every epoch boundary.  A killed run
continues from it bitwise-identically, and ``repro-serve --checkpoint``
serves the best-validation weights the run tested from it::

    python -m repro.train.cli --model SLIME4Rec --checkpoint-dir out/run1
    # ... process dies ...
    python -m repro.train.cli --model SLIME4Rec --checkpoint-dir out/run1 --resume
    python -m repro.serving.cli --model SLIME4Rec --checkpoint out/run1 --dtype float64
"""

from __future__ import annotations

import argparse
import sys

from repro.baselines import BASELINE_NAMES, build_baseline
from repro.baselines.registry import BESPOKE_LOSS_MODELS
from repro.data.dataset import SequenceDataset
from repro.data.loaders import load_interactions_file
from repro.data.synthetic import PRESETS, load_preset
from repro.train.trainer import TrainConfig, Trainer

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-train", description="Train a sequential recommender."
    )
    parser.add_argument("--model", choices=BASELINE_NAMES, default="SLIME4Rec")
    parser.add_argument("--dataset", choices=sorted(PRESETS), default="beauty")
    parser.add_argument("--data-file", help="real 'user item ts' file (overrides --dataset)")
    parser.add_argument("--scale", type=float, default=0.3)
    parser.add_argument("--max-len", type=int, default=24)
    parser.add_argument("--hidden-dim", type=int, default=32)
    parser.add_argument("--num-layers", type=int, default=2)
    parser.add_argument("--epochs", type=int, default=10)
    parser.add_argument("--batch-size", type=int, default=256)
    parser.add_argument("--lr", type=float, default=1e-3)
    parser.add_argument("--patience", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--dtype",
        choices=("float32", "float64"),
        default=None,
        help="compute precision; float32 halves memory bandwidth (default float64)",
    )
    parser.add_argument("--alpha", type=float, default=0.4, help="SLIME4Rec filter size ratio")
    parser.add_argument(
        "--train-num-negatives",
        type=int,
        default=None,
        metavar="K",
        help="train with sampled softmax over K negatives instead of the "
        "full-catalog cross-entropy (evaluation still ranks the full catalog)",
    )
    parser.add_argument(
        "--negative-sampling",
        choices=("uniform", "log_uniform"),
        default=None,
        help="proposal distribution for --train-num-negatives "
        "(default uniform; requires --train-num-negatives)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        help="directory for rotated full-run-state checkpoints (model + "
        "best-validation weights + optimizer + RNG streams + history); "
        "written at every epoch boundary, enabling --resume after a crash "
        "and repro-serve --checkpoint",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="STEPS",
        help="additionally checkpoint every STEPS optimizer steps "
        "(0 = epoch boundaries only; requires --checkpoint-dir)",
    )
    parser.add_argument(
        "--keep-last",
        type=int,
        default=3,
        metavar="K",
        help="checkpoints retained by rotation in --checkpoint-dir (default 3)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume from the newest verifiable checkpoint in --checkpoint-dir; "
        "the continued run is bitwise-identical to one that never stopped",
    )
    parser.add_argument(
        "--static-graph",
        action="store_true",
        help="capture one training step into a static tape and replay it on "
        "subsequent same-shape batches (bitwise-identical to the dynamic "
        "engine; falls back to dynamic per step on geometry mismatch and "
        "permanently on replay-unsafe models)",
    )
    parser.add_argument(
        "--guard-policy",
        choices=("raise", "skip", "rollback"),
        default="raise",
        help="what to do when a step produces a non-finite loss/gradient: "
        "fail fast (default), skip the update, or roll back to the last "
        "checkpoint (requires --checkpoint-dir)",
    )
    parser.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    # Flag-consistency checks up front — fail in milliseconds, before
    # the (potentially long) dataset build.
    if args.negative_sampling is not None and args.train_num_negatives is None:
        parser.error(
            "--negative-sampling requires --train-num-negatives "
            "(it only configures the sampled-softmax proposal)"
        )
    if args.model in BESPOKE_LOSS_MODELS and args.train_num_negatives is not None:
        parser.error(
            f"{args.model} trains with a bespoke objective that bypasses "
            f"prediction_loss; --train-num-negatives does not apply"
        )
    if args.resume and not args.checkpoint_dir:
        parser.error("--resume requires --checkpoint-dir (the store to resume from)")
    if args.checkpoint_every and not args.checkpoint_dir:
        parser.error("--checkpoint-every requires --checkpoint-dir")
    if args.guard_policy == "rollback" and not args.checkpoint_dir:
        parser.error("--guard-policy rollback requires --checkpoint-dir")

    if args.data_file:
        interactions = load_interactions_file(args.data_file)
        dataset = SequenceDataset(interactions, name="custom", max_len=args.max_len)
    else:
        dataset = load_preset(args.dataset, scale=args.scale, max_len=args.max_len)
    print(dataset.stats().as_row())

    overrides = {"alpha": args.alpha} if args.model == "SLIME4Rec" else {}
    if args.train_num_negatives is not None:
        overrides["train_num_negatives"] = args.train_num_negatives
        overrides["negative_sampling"] = args.negative_sampling or "uniform"
    if args.static_graph:
        overrides["static_graph"] = True
    model = build_baseline(
        args.model,
        dataset,
        hidden_dim=args.hidden_dim,
        num_layers=args.num_layers,
        seed=args.seed,
        dtype=args.dtype,
        **overrides,
    )
    print(f"{args.model}: {model.num_parameters():,} parameters")

    config = TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        lr=args.lr,
        patience=args.patience,
        seed=args.seed,
        verbose=not args.quiet,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        keep_last=args.keep_last,
        guard_policy=args.guard_policy,
    )
    trainer = Trainer(
        model, dataset, config,
        with_same_target=args.model in ("DuoRec", "SLIME4Rec"),
    )
    history = trainer.fit(resume_from=args.checkpoint_dir if args.resume else None)
    result = trainer.test()
    print(f"\n{history.summary()}")
    print(f"test: {result.as_row()}")

    if args.checkpoint_dir:
        print(f"run-state checkpoints in {args.checkpoint_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
