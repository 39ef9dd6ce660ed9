"""Mini-batch trainer with validation-based early stopping.

Mirrors the paper's protocol (Section IV-D): Adam at a constant
lr=1e-3, batch training on all prefix instances, hyper-parameters tuned
on the validation split, final metrics reported on the test split with
the best-validation checkpoint restored.

On top of the paper's protocol the trainer is a **fault-tolerant
runtime** (see ``docs/ARCHITECTURE.md``, "Fault tolerance & checkpoint
format"):

- **Full-state checkpointing** — model parameters, Adam moments and
  step count, the best-validation snapshot, the complete
  :class:`TrainHistory`, and the bit state of *every* random stream
  (dropout/augmentation/noise generators via ``Module.rng_state_dict``,
  the batch iterator's shuffle stream and epoch position, the negative
  sampler) are archived together in a rotated, checksummed
  :class:`~repro.utils.io.CheckpointStore`.
- **Bitwise-identical resume** — ``fit(resume_from=...)`` restores all
  of the above and continues mid-epoch from the exact batch after the
  checkpoint; the resumed trajectory (losses, parameters, metrics) is
  bitwise-equal to the uninterrupted run in both dtypes
  (``tests/test_fault_tolerance.py`` pins this).
- **Numeric guards** — non-finite loss/gradient detection with a
  configurable policy (``raise`` / ``skip`` / ``rollback``), loss-spike
  counting, and guard counters surfaced on :class:`TrainHistory`.
- **Fault trip points** (``repro.utils.faults``) at step, epoch, and
  save boundaries, so crash/resume tests kill the real code paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.autograd.graph import TapeExecutor
from repro.data.batching import BatchIterator
from repro.data.dataset import SequenceDataset
from repro.evaluation.evaluator import EvalResult, Evaluator
from repro.optim import Adam, clip_grad_norm
from repro.utils import faults
from repro.utils.io import CheckpointStore

__all__ = ["TrainConfig", "TrainHistory", "Trainer", "unpack_run_state"]

#: Valid values of :attr:`TrainConfig.guard_policy`.
GUARD_POLICIES = ("raise", "skip", "rollback")

#: ``metadata["format"]`` of every archive the trainer writes.
_RUN_STATE_FORMAT = "repro-run-state-v1"


def unpack_run_state(snapshot: Dict) -> Dict:
    """Split a loaded run-state archive into its array groups.

    ``snapshot`` is a :meth:`CheckpointStore.load_latest` result.  This
    is the one place that reads the archive layout: ``model/<name>``
    holds the live parameters, ``best/<name>`` the best-validation
    snapshot and ``optim/<key>/<index>`` the optimizer's array lists.

    Returns ``{"model", "best", "optim", "weights"}``: ``best`` is
    ``None`` unless the run recorded a best-validation snapshot,
    ``optim`` maps each key to its arrays in index order, and
    ``weights`` is the state :meth:`Trainer.fit` leaves in the model it
    tests — ``best`` when recorded, else ``model``.  Raises
    ``ValueError`` when the archive was not written by a trainer.
    """
    meta = snapshot["metadata"]
    if meta.get("format") != _RUN_STATE_FORMAT:
        raise ValueError(
            f"{snapshot.get('path')} is not a run-state checkpoint "
            f"(format={meta.get('format')!r}); pass a CheckpointStore "
            f"directory written by Trainer.fit"
        )
    model_state: Dict[str, np.ndarray] = {}
    best_state: Dict[str, np.ndarray] = {}
    optim_arrays: Dict[str, List] = {}
    for key, array in snapshot["state"].items():
        if key.startswith("model/"):
            model_state[key[len("model/"):]] = array
        elif key.startswith("best/"):
            best_state[key[len("best/"):]] = array
        elif key.startswith("optim/"):
            group, index = key[len("optim/"):].rsplit("/", 1)
            optim_arrays.setdefault(group, []).append((int(index), array))
    best = best_state if meta.get("has_best") else None
    return {
        "model": model_state,
        "best": best,
        "optim": {
            group: [array for _, array in sorted(arrays, key=lambda pair: pair[0])]
            for group, arrays in optim_arrays.items()
        },
        "weights": model_state if best is None else best,
    }


@dataclass
class TrainConfig:
    """Knobs of the training loop."""

    epochs: int = 30
    batch_size: int = 256
    lr: float = 1e-3
    weight_decay: float = 0.0
    grad_clip: float = 5.0
    #: early stopping patience in epochs on the monitor metric; 0 disables
    patience: int = 5
    monitor: str = "NDCG@10"
    #: evaluate the validation split every this many epochs
    eval_every: int = 1
    seed: int = 0
    verbose: bool = False

    # -- fault tolerance ------------------------------------------------
    #: directory for the rotated run-state checkpoint store; None disables
    checkpoint_dir: Optional[str] = None
    #: additionally checkpoint every this many optimizer steps (0 = only
    #: at epoch boundaries); requires ``checkpoint_dir``
    checkpoint_every: int = 0
    #: checkpoints retained by the store's rotation
    keep_last: int = 3
    #: what to do on a non-finite loss or gradient norm: ``"raise"``
    #: fails fast, ``"skip"`` drops the update and continues, and
    #: ``"rollback"`` reloads the latest checkpoint and continues from
    #: there (requires ``checkpoint_dir``; bounded by ``max_rollbacks``
    #: since a *deterministic* divergence would recur forever)
    guard_policy: str = "raise"
    max_rollbacks: int = 3
    #: loss-spike counter: a step loss above ``spike_factor`` times the
    #: mean of the last ``spike_window`` step losses of the epoch is
    #: counted in ``TrainHistory.loss_spikes`` (0 disables)
    spike_factor: float = 0.0
    spike_window: int = 16


@dataclass
class TrainHistory:
    """Per-epoch record of losses and validation metrics.

    The guard counters record numeric-guard events across the whole run
    (cumulative over resumes and rollbacks): steps whose loss or
    gradient norm came back non-finite, steps skipped or rolled back by
    the guard policy, and losses flagged by the spike detector.
    """

    losses: List[float] = field(default_factory=list)
    valid_metrics: List[Dict[str, float]] = field(default_factory=list)
    best_epoch: int = -1
    best_value: float = -np.inf
    nonfinite_losses: int = 0
    nonfinite_grads: int = 0
    skipped_steps: int = 0
    rollbacks: int = 0
    loss_spikes: int = 0

    def summary(self) -> str:
        text = (
            f"epochs={len(self.losses)} best_epoch={self.best_epoch} "
            f"best={self.best_value:.4f} final_loss={self.losses[-1]:.4f}"
        )
        guards = self.guard_counters()
        if any(guards.values()):
            text += " guards[" + " ".join(f"{k}={v}" for k, v in guards.items() if v) + "]"
        return text

    def guard_counters(self) -> Dict[str, int]:
        return {
            "nonfinite_losses": self.nonfinite_losses,
            "nonfinite_grads": self.nonfinite_grads,
            "skipped_steps": self.skipped_steps,
            "rollbacks": self.rollbacks,
            "loss_spikes": self.loss_spikes,
        }


class _RollbackRequested(Exception):
    """Internal signal: a guard fired under the ``rollback`` policy."""

    def __init__(self, what: str, step: int) -> None:
        super().__init__(f"non-finite {what} at step {step}")
        self.what = what
        self.step = step


class Trainer:
    """Train a sequential recommender on a :class:`SequenceDataset`.

    Any model exposing ``loss(batch)``, ``parameters()``,
    ``predict_scores(...)``, ``train()/eval()``, ``state_dict()``,
    ``load_state_dict()`` and ``rng_state_dict()`` can be trained —
    SLIME4Rec and all baselines share that interface.
    """

    def __init__(
        self,
        model,
        dataset: SequenceDataset,
        config: Optional[TrainConfig] = None,
        with_same_target: Optional[bool] = None,
    ) -> None:
        self.model = model
        self.dataset = dataset
        self.config = config or TrainConfig()
        if self.config.guard_policy not in GUARD_POLICIES:
            raise ValueError(
                f"guard_policy must be one of {GUARD_POLICIES}, "
                f"got {self.config.guard_policy!r}"
            )
        if self.config.guard_policy == "rollback" and not self.config.checkpoint_dir:
            raise ValueError("guard_policy='rollback' requires checkpoint_dir")
        if self.config.checkpoint_every and not self.config.checkpoint_dir:
            raise ValueError("checkpoint_every requires checkpoint_dir")
        if with_same_target is None:
            with_same_target = getattr(getattr(model, "config", None), "cl_weight", 0.0) > 0.0
        self.iterator = BatchIterator(
            dataset,
            batch_size=self.config.batch_size,
            with_same_target=with_same_target,
            seed=self.config.seed,
        )
        self.evaluator = Evaluator(dataset)
        self.optimizer = Adam(
            model.parameters(), lr=self.config.lr, weight_decay=self.config.weight_decay
        )
        self.store = (
            CheckpointStore(self.config.checkpoint_dir, keep_last=self.config.keep_last)
            if self.config.checkpoint_dir
            else None
        )
        # Static-graph tape executor, built lazily at the first training
        # step when the model opts in via ``model.static_graph`` (a
        # SlimeConfig field / SequentialEncoderBase attribute).  The
        # dynamic engine stays the reference; the executor falls back to
        # it per step on geometry mismatch and permanently on
        # replay-unsafe graphs (see repro.autograd.graph).
        self._executor: Optional[TapeExecutor] = None
        # Run-state fields, (re)initialized by fit()/restores.
        self.history = TrainHistory()
        self._best_state: Optional[Dict[str, np.ndarray]] = None
        self._stale = 0
        self._epoch = 0
        self._global_step = 0
        self._epoch_losses: List[float] = []

    # ------------------------------------------------------------------
    def fit(self, resume_from: Optional[str | Path] = None) -> TrainHistory:
        """Run (or continue) training; returns the :class:`TrainHistory`.

        ``resume_from`` is a :class:`~repro.utils.io.CheckpointStore`
        directory (typically ``config.checkpoint_dir``); any other path
        raises the store's ``FileNotFoundError``.  The model/trainer
        must be *built* the same way as the killed run (same
        constructor seeds, dtype, geometry); everything trained or drawn
        since construction is restored from the archive, and the
        continued trajectory is bitwise-identical to one that never
        stopped.
        """
        cfg = self.config
        self.history = TrainHistory()
        self._best_state = None
        self._stale = 0
        self._epoch = 0
        self._global_step = 0
        self._epoch_losses = []
        if resume_from is not None:
            self._restore_run_state(CheckpointStore(resume_from).load_latest())
            if cfg.verbose:
                print(
                    f"resumed at epoch {self._epoch + 1}, step {self._global_step} "
                    f"(position {self.iterator.state_dict()['position']})"
                )
        rollbacks = 0
        while True:
            try:
                self._run_epochs()
                break
            except _RollbackRequested as request:
                rollbacks += 1
                live = self.history.guard_counters()
                if rollbacks > cfg.max_rollbacks or self.store is None:
                    raise FloatingPointError(
                        f"{request} — giving up after {rollbacks - 1} rollback(s); "
                        f"a deterministic divergence cannot be outrun by restoring "
                        f"checkpoints (inspect lr/grad_clip instead)"
                    ) from request
                try:
                    snapshot = self.store.load_latest()
                except FileNotFoundError as exc:
                    raise FloatingPointError(
                        f"{request} — rollback requested but no checkpoint exists yet"
                    ) from exc
                self._restore_run_state(snapshot)
                # Guard counters are cumulative over the whole run; the
                # checkpoint predates the event that triggered this
                # rollback, so carry the live (larger) counts forward.
                for name, value in live.items():
                    setattr(self.history, name, value)
                self.history.rollbacks += 1
                if cfg.verbose:
                    print(
                        f"{request}: rolled back to step {self._global_step} "
                        f"({rollbacks}/{cfg.max_rollbacks})"
                    )
        if self._best_state is not None:
            self.model.load_state_dict(self._best_state)
        return self.history

    # ------------------------------------------------------------------
    def _run_epochs(self) -> None:
        cfg = self.config
        history = self.history
        for epoch in range(self._epoch, cfg.epochs):
            self._epoch = epoch
            self.model.train()
            for batch in self.iterator.epoch():
                self._train_step(batch)
            history.losses.append(float(np.mean(self._epoch_losses)))
            self._epoch_losses = []

            stop = False
            if (epoch + 1) % cfg.eval_every == 0:
                result = self.evaluator.evaluate(self.model, split="valid")
                history.valid_metrics.append(dict(result.metrics))
                value = result[cfg.monitor]
                if cfg.verbose:
                    print(
                        f"epoch {epoch + 1:>3} loss={history.losses[-1]:.4f} {result.as_row()}"
                    )
                if value > history.best_value:
                    history.best_value = value
                    history.best_epoch = epoch
                    self._best_state = self.model.state_dict()
                    self._stale = 0
                else:
                    self._stale += 1
                    if cfg.patience and self._stale >= cfg.patience:
                        stop = True
            # The epoch is complete: subsequent restores resume at the
            # next one (the iterator is already re-anchored to position 0).
            self._epoch = epoch + 1
            if self.store is not None:
                self._save_run_state()
            faults.trip("trainer.epoch", epoch)
            if stop:
                break

    def _train_step(self, batch) -> None:
        cfg = self.config
        history = self.history
        step_index = self._global_step
        self.optimizer.zero_grad()
        if getattr(self.model, "static_graph", False):
            if self._executor is None or self._executor.model is not self.model:
                self._executor = TapeExecutor(self.model)
            result = self._executor.step(batch)
            loss_value = result.loss
            run_backward = result.backward
        else:
            loss = self.model.loss(batch)
            loss_value = float(loss.data)
            run_backward = loss.backward
        bad: Optional[str] = None
        if not math.isfinite(loss_value):
            bad = "loss"
            history.nonfinite_losses += 1
        else:
            run_backward()
            if cfg.grad_clip > 0:
                # The pre-clip global norm doubles as the gradient
                # guard: any NaN/Inf gradient makes it non-finite, and
                # clip_grad_norm leaves the gradients unscaled in that
                # case so the policy below decides what happens.
                grad_norm = clip_grad_norm(self.optimizer.params, cfg.grad_clip)
                if not math.isfinite(grad_norm):
                    bad = "grad norm"
                    history.nonfinite_grads += 1
        if bad is not None:
            if cfg.guard_policy == "raise":
                raise FloatingPointError(
                    f"non-finite {bad} at step {step_index} "
                    f"(loss={loss_value!r}); set TrainConfig.guard_policy to "
                    f"'skip' or 'rollback' to continue past numeric faults"
                )
            if cfg.guard_policy == "rollback":
                raise _RollbackRequested(bad, step_index)
            # "skip": drop this update entirely; parameters, moments and
            # the epoch-loss mean stay untouched.
            history.skipped_steps += 1
            self.optimizer.zero_grad()
        else:
            self.optimizer.step()
            self._zero_padding_rows()
            if cfg.spike_factor > 0:
                window = self._epoch_losses[-cfg.spike_window:]
                if len(window) >= 5 and loss_value > cfg.spike_factor * float(
                    np.mean(window)
                ):
                    history.loss_spikes += 1
            self._epoch_losses.append(loss_value)
        self._global_step += 1
        faults.trip("trainer.step", step_index)
        if (
            self.store is not None
            and cfg.checkpoint_every > 0
            and self._global_step % cfg.checkpoint_every == 0
        ):
            self._save_run_state()

    def _zero_padding_rows(self) -> None:
        """Keep padding embeddings pinned at zero after every update."""
        for module in self.model.modules():
            zero = getattr(module, "zero_padding_row", None)
            if callable(zero):
                zero()

    # ------------------------------------------------------------------
    # Run-state archive composition
    # ------------------------------------------------------------------
    def _save_run_state(self) -> Path:
        """Archive the complete run state into the checkpoint store."""
        payload: Dict[str, np.ndarray] = {}
        for name, array in self.model.state_dict().items():
            payload[f"model/{name}"] = array
        optim_scalars: Dict = {}
        for key, value in self.optimizer.state_dict().items():
            if isinstance(value, list):
                for i, array in enumerate(value):
                    payload[f"optim/{key}/{i:05d}"] = array
                optim_scalars[key] = {"__arrays__": len(value)}
            else:
                optim_scalars[key] = value
        if self._best_state is not None:
            for name, array in self._best_state.items():
                payload[f"best/{name}"] = array
        history = self.history
        metadata = {
            "format": _RUN_STATE_FORMAT,
            "epoch": self._epoch,
            "global_step": self._global_step,
            "epoch_losses": list(self._epoch_losses),
            "stale": self._stale,
            "has_best": self._best_state is not None,
            "history": {
                "losses": list(history.losses),
                "valid_metrics": [dict(m) for m in history.valid_metrics],
                "best_epoch": history.best_epoch,
                "best_value": None if np.isneginf(history.best_value) else history.best_value,
                **history.guard_counters(),
            },
            "optim": optim_scalars,
            "rng": {
                "model": self.model.rng_state_dict(),
                "iterator": self.iterator.state_dict(),
            },
            "config": {
                "epochs": self.config.epochs,
                "batch_size": self.config.batch_size,
                "seed": self.config.seed,
                "monitor": self.config.monitor,
            },
        }
        return self.store.save(payload, metadata, step=self._global_step)

    def _restore_run_state(self, snapshot: Dict) -> None:
        """Restore model/optimizer/rng/history state from an archive, all
        or nothing."""
        meta = snapshot["metadata"]
        # Archives from before the schedules were removed carry
        # ``"scheduler": null``; a non-null one was written by a run
        # whose lr moved, which a constant-lr Adam cannot continue.
        if meta.get("scheduler") is not None:
            raise ValueError(
                f"run-state archive {snapshot.get('path')} carries LR-scheduler "
                f"state (scheduler={meta['scheduler']!r}); the trainer runs Adam "
                f"at a constant lr and cannot resume a scheduled run"
            )
        groups = unpack_run_state(snapshot)
        optim_state: Dict = {}
        for key, value in meta["optim"].items():
            if isinstance(value, dict) and "__arrays__" in value:
                arrays = groups["optim"].get(key, [])
                if len(arrays) != value["__arrays__"]:
                    raise ValueError(
                        f"run-state archive is missing optimizer arrays for {key!r}"
                    )
                optim_state[key] = arrays
            else:
                optim_state[key] = value
        # Archives from before SLIME4Rec dropped its never-drawn
        # contrastive generator still carry its stream.
        model_rng = {
            path: state for path, state in meta["rng"]["model"].items() if path != "_cl_rng"
        }
        hist_meta = meta["history"]
        history = TrainHistory(
            losses=list(hist_meta["losses"]),
            valid_metrics=[dict(m) for m in hist_meta["valid_metrics"]],
            best_epoch=int(hist_meta["best_epoch"]),
            best_value=(
                -np.inf if hist_meta["best_value"] is None else float(hist_meta["best_value"])
            ),
            nonfinite_losses=int(hist_meta.get("nonfinite_losses", 0)),
            nonfinite_grads=int(hist_meta.get("nonfinite_grads", 0)),
            skipped_steps=int(hist_meta.get("skipped_steps", 0)),
            rollbacks=int(hist_meta.get("rollbacks", 0)),
            loss_spikes=int(hist_meta.get("loss_spikes", 0)),
        )
        stale, epoch, global_step = (
            int(meta["stale"]), int(meta["epoch"]), int(meta["global_step"])
        )
        epoch_losses = [float(v) for v in meta["epoch_losses"]]
        # Check every group before assigning any, so a refused archive
        # leaves the trainer as it was.
        self.model.check_state_dict(groups["model"])
        self.optimizer.check_state_dict(optim_state)
        self.model.check_rng_state_dict(model_rng)
        self.iterator.check_state_dict(meta["rng"]["iterator"])
        self.model.load_state_dict(groups["model"])
        self.optimizer.load_state_dict(optim_state)
        self.model.load_rng_state_dict(model_rng)
        self.iterator.load_state_dict(meta["rng"]["iterator"])
        self._best_state = groups["best"]
        self.history = history
        self._stale, self._epoch, self._global_step = stale, epoch, global_step
        self._epoch_losses = epoch_losses

    # ------------------------------------------------------------------
    def test(self) -> EvalResult:
        return self.evaluator.evaluate(self.model, split="test")
