"""Crash/resume, durability, fault-injection, and numeric-guard tests.

The headline contract: a training run killed at any trip point and
resumed from its checkpoint store produces a trajectory (losses,
validation metrics, final parameters) **bitwise-identical** to a run
that was never interrupted — across models (SLIME4Rec and a CE
baseline) and dtypes (float64 and float32).
"""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.autograd.workspace import generator_state, set_generator_state
from repro.baselines import build_baseline
from repro.data.batching import BatchIterator
from repro.data.dataset import SequenceDataset
from repro.data.negative_sampling import NegativeSampler
from repro.data.synthetic import SyntheticConfig, generate_interactions
from repro.optim import Adam, clip_grad_norm
from repro.train import TrainConfig, Trainer
from repro.train.trainer import unpack_run_state
from repro.utils import faults
from repro.utils.faults import FaultInjector, InjectedCrash, InjectedIOError
from repro.utils.io import CheckpointStore, atomic_savez

EPOCHS = 3
BATCH = 32


@pytest.fixture(scope="module")
def dataset():
    cfg = SyntheticConfig(num_users=60, num_items=40, seed=8)
    return SequenceDataset(generate_interactions(cfg), max_len=10)


def build_model(dataset, name, dtype="float64"):
    return build_baseline(
        name, dataset, hidden_dim=16, num_layers=1, seed=0, dtype=dtype
    )


def make_trainer(model, dataset, name, **config_overrides):
    config_overrides.setdefault("epochs", EPOCHS)
    config_overrides.setdefault("batch_size", BATCH)
    config_overrides.setdefault("patience", 0)
    config = TrainConfig(**config_overrides)
    return Trainer(model, dataset, config, with_same_target=(name == "SLIME4Rec"))


@pytest.fixture(scope="module")
def reference(dataset):
    """Uninterrupted reference runs, cached per (model, dtype)."""
    cache = {}

    def get(name, dtype):
        key = (name, dtype)
        if key not in cache:
            model = build_model(dataset, name, dtype)
            trainer = make_trainer(model, dataset, name)
            history = trainer.fit()
            cache[key] = {
                "losses": list(history.losses),
                "valid": [dict(m) for m in history.valid_metrics],
                "params": {k: v.copy() for k, v in model.state_dict().items()},
                "steps_per_epoch": len(trainer.iterator),
            }
        return cache[key]

    return get


def assert_matches_reference(history, model, ref):
    assert history.losses == ref["losses"]
    assert history.valid_metrics == ref["valid"]
    state = model.state_dict()
    assert set(state) == set(ref["params"])
    for key, value in state.items():
        assert np.array_equal(value, ref["params"][key]), key


# ----------------------------------------------------------------------
# Tentpole: kill-point matrix — train, kill, resume, compare bitwise
# ----------------------------------------------------------------------

class TestKillResumeBitwise:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("model_name", ["SLIME4Rec", "SASRec"])
    @pytest.mark.parametrize(
        "kill", ["mid_epoch", "at_save", "post_save_pre_rotate"]
    )
    def test_killed_run_resumes_bitwise_identically(
        self, dataset, reference, tmp_path, kill, model_name, dtype
    ):
        ref = reference(model_name, dtype)
        spe = ref["steps_per_epoch"]
        assert spe >= 3, "geometry too small for a mid-epoch kill"
        every = spe - 1  # guarantees mid-epoch periodic saves
        # First periodic save inside epoch 2 — by then epoch 1's
        # boundary checkpoint exists, so every kill leaves a resumable
        # store.
        save_step = next(s for s in range(every, 10 * spe, every) if s > spe)
        if kill == "mid_epoch":
            injector = FaultInjector().crash_at("trainer.step", at=spe + 1)
        elif kill == "at_save":
            # Dies before any bytes of the new checkpoint are written;
            # resume falls back to the epoch-1 boundary checkpoint.
            injector = FaultInjector().crash_at("checkpoint.pre_save", at=save_step)
        else:
            # Dies after the atomic publish + manifest update but before
            # rotation pruning; resume uses the just-published file.
            injector = FaultInjector().crash_at("checkpoint.post_save", at=save_step)

        store_dir = tmp_path / "store"
        overrides = dict(
            checkpoint_dir=str(store_dir), checkpoint_every=every, keep_last=2
        )
        model = build_model(dataset, model_name, dtype)
        trainer = make_trainer(model, dataset, model_name, **overrides)
        with faults.inject(injector):
            with pytest.raises(InjectedCrash):
                trainer.fit()
        assert injector.fired, "the scheduled fault never tripped"
        assert CheckpointStore(store_dir).latest_step() is not None

        # A fresh process: rebuild model and trainer the same way.
        model2 = build_model(dataset, model_name, dtype)
        trainer2 = make_trainer(model2, dataset, model_name, **overrides)
        history = trainer2.fit(resume_from=store_dir)
        assert_matches_reference(history, model2, ref)

    def test_checkpointing_does_not_perturb_training(
        self, dataset, reference, tmp_path
    ):
        """Enabling the store must not change the trajectory at all."""
        ref = reference("SLIME4Rec", "float64")
        model = build_model(dataset, "SLIME4Rec")
        trainer = make_trainer(
            model, dataset, "SLIME4Rec",
            checkpoint_dir=str(tmp_path), checkpoint_every=3,
        )
        history = trainer.fit()
        assert_matches_reference(history, model, ref)

    def test_resume_from_single_file_raises_filenotfound(self, dataset, tmp_path):
        """Resuming reads only checksummed stores: a single archive path
        raises the store's FileNotFoundError naming that path."""
        store_dir = tmp_path / "store"
        trainer = make_trainer(
            build_model(dataset, "SASRec"), dataset, "SASRec",
            epochs=1, checkpoint_dir=str(store_dir),
        )
        trainer.fit()
        newest = sorted(store_dir.glob("ckpt-*.npz"))[-1]
        trainer2 = make_trainer(build_model(dataset, "SASRec"), dataset, "SASRec")
        with pytest.raises(FileNotFoundError, match=newest.name):
            trainer2.fit(resume_from=newest)

    def test_resume_rejects_plain_model_checkpoint(self, dataset, tmp_path):
        model = build_model(dataset, "SASRec")
        CheckpointStore(tmp_path).save(
            model.state_dict(), {"model_class": "SASRec"}, step=0
        )
        trainer = make_trainer(build_model(dataset, "SASRec"), dataset, "SASRec")
        with pytest.raises(ValueError, match="not a run-state checkpoint"):
            trainer.fit(resume_from=tmp_path)


def copy_newest(store_dir, out_dir, **metadata):
    """Re-save the newest archive of ``store_dir`` into a fresh store at
    ``out_dir``, with ``metadata`` merged into its metadata."""
    snapshot = CheckpointStore(store_dir).load_latest()
    meta = dict(snapshot["metadata"], **metadata)
    CheckpointStore(out_dir).save(snapshot["state"], meta, step=snapshot["step"])


def resume_state(trainer):
    """Everything a restore writes: parameters, Adam state, every stream."""
    return {
        "params": trainer.model.state_dict(),
        "optim": trainer.optimizer.state_dict(),
        "model_rng": trainer.model.rng_state_dict(),
        "iterator": trainer.iterator.state_dict(),
        "shuffle": generator_state(trainer.iterator._rng),
    }


def assert_same_state(got, want):
    assert got["params"].keys() == want["params"].keys()
    for name, array in got["params"].items():
        assert np.array_equal(array, want["params"][name]), name
    assert got["optim"]["step"] == want["optim"]["step"]
    assert got["optim"]["lr"] == want["optim"]["lr"]
    for key in ("m", "v"):
        for a, b in zip(got["optim"][key], want["optim"][key]):
            assert np.array_equal(a, b), key
    for key in ("model_rng", "iterator", "shuffle"):
        assert got[key] == want[key], key


class TestArchiveCompatibility:
    """Archives written while the trainer still had an LR-scheduler slot
    carry ``"scheduler": null`` in their metadata."""

    def test_null_scheduler_archive_resumes_bitwise(self, dataset, reference, tmp_path):
        ref = reference("SASRec", "float64")
        spe = ref["steps_per_epoch"]
        store_dir = tmp_path / "store"
        trainer = make_trainer(
            build_model(dataset, "SASRec"), dataset, "SASRec",
            checkpoint_dir=str(store_dir), checkpoint_every=spe - 1,
        )
        # The newest archive is the periodic save at step 2·spe − 2,
        # mid-way through epoch 2.
        with faults.inject(FaultInjector().crash_at("trainer.step", at=2 * spe - 1)):
            with pytest.raises(InjectedCrash):
                trainer.fit()
        written = CheckpointStore(store_dir).load_latest()
        assert "scheduler" not in written["metadata"]
        assert written["metadata"]["rng"]["iterator"]["position"] > 0

        legacy_dir = tmp_path / "legacy"
        copy_newest(store_dir, legacy_dir, scheduler=None)
        model = build_model(dataset, "SASRec")
        resumed = make_trainer(
            model, dataset, "SASRec",
            checkpoint_dir=str(legacy_dir), checkpoint_every=spe - 1,
        )
        history = resumed.fit(resume_from=legacy_dir)
        assert_matches_reference(history, model, ref)

    def test_scheduled_archive_is_refused_before_any_state_changes(
        self, dataset, tmp_path
    ):
        store_dir = tmp_path / "store"
        make_trainer(
            build_model(dataset, "SLIME4Rec"), dataset, "SLIME4Rec",
            epochs=1, checkpoint_dir=str(store_dir),
        ).fit()
        scheduled_dir = tmp_path / "scheduled"
        copy_newest(store_dir, scheduled_dir, scheduler={"step": 7, "base_lr": 1e-3})

        trainer = make_trainer(build_model(dataset, "SLIME4Rec"), dataset, "SLIME4Rec")
        before = resume_state(trainer)
        with pytest.raises(ValueError, match="scheduler"):
            trainer.fit(resume_from=scheduled_dir)
        assert_same_state(resume_state(trainer), before)
        # The archive differs from the fresh state, so a partial restore
        # would have shown above.
        archived = unpack_run_state(CheckpointStore(scheduled_dir).load_latest())
        assert any(
            not np.array_equal(archived["model"][name], array)
            for name, array in before["params"].items()
        )


    def test_refused_archive_leaves_every_group_unchanged(self, dataset, tmp_path):
        """One bad ``optim/v`` array refuses the archive before the model,
        Adam, the model's generators or the iterator take any of it."""
        store_dir = tmp_path / "store"
        make_trainer(
            build_model(dataset, "SLIME4Rec"), dataset, "SLIME4Rec",
            epochs=1, checkpoint_dir=str(store_dir),
        ).fit()
        snapshot = CheckpointStore(store_dir).load_latest()
        state = dict(snapshot["state"])
        state["optim/v/00003"] = np.zeros((2, 2))
        bad_dir = tmp_path / "bad"
        CheckpointStore(bad_dir).save(state, snapshot["metadata"], step=snapshot["step"])

        trainer = make_trainer(
            build_model(dataset, "SLIME4Rec"), dataset, "SLIME4Rec", lr=5e-4
        )
        before = resume_state(trainer)
        with pytest.raises(ValueError, match="v buffer 3"):
            trainer.fit(resume_from=bad_dir)
        assert_same_state(resume_state(trainer), before)
        # Every group of the archive differs from the fresh trainer, so
        # a partial restore would have shown above.
        archived = unpack_run_state(snapshot)
        meta = snapshot["metadata"]
        assert any(
            not np.array_equal(archived["model"][name], array)
            for name, array in before["params"].items()
        )
        assert meta["optim"]["lr"] != before["optim"]["lr"]
        assert any(np.any(m) for m in archived["optim"]["m"])
        assert meta["rng"]["model"]["embed_dropout.rng"] != before["model_rng"]["embed_dropout.rng"]
        assert meta["rng"]["iterator"] != before["iterator"]


#: Mid-epoch archives (step 24 of 39, iterator position 11) written by
#: commit 2743db6, whose sampled head built its sampler at the first
#: training step and whose SLIME4Rec still owned a never-drawn
#: ``_cl_rng`` generator.  Each was written by training the model below
#: on the ``dataset`` fixture with ``make_trainer`` defaults and the
#: suite's float64 default dtype, ``checkpoint_every=12``, killed at
#: step 25, and its newest entry re-saved alone.
OLD_ARCHIVES = Path(__file__).parent / "archives"


class TestOlderArchives:
    @pytest.mark.parametrize(
        "label, name, knobs",
        [
            ("SASRec-uniform", "SASRec",
             dict(train_num_negatives=8, negative_sampling="uniform")),
            ("SASRec-log_uniform", "SASRec",
             dict(train_num_negatives=8, negative_sampling="log_uniform")),
            ("SLIME4Rec", "SLIME4Rec", {}),
        ],
        ids=["SASRec-uniform", "SASRec-log_uniform", "SLIME4Rec"],
    )
    def test_resumes_bitwise(self, dataset, tmp_path, label, name, knobs):
        def build():
            return build_baseline(
                name, dataset, hidden_dim=8, num_layers=1, seed=0,
                dtype="float64", **knobs,
            )

        model = build()
        history = make_trainer(model, dataset, name).fit()
        ref = {
            "losses": list(history.losses),
            "valid": [dict(m) for m in history.valid_metrics],
            "params": model.state_dict(),
        }
        archive = CheckpointStore(OLD_ARCHIVES / label).load_latest()
        assert archive["metadata"]["rng"]["iterator"]["position"] > 0
        assert ("_cl_rng" in archive["metadata"]["rng"]["model"]) == (name == "SLIME4Rec")
        store_dir = tmp_path / "store"
        shutil.copytree(OLD_ARCHIVES / label, store_dir)
        model = build()
        history = make_trainer(model, dataset, name).fit(resume_from=store_dir)
        assert_matches_reference(history, model, ref)


class TestUnpackRunState:
    @pytest.mark.parametrize("eval_every", [1, 2], ids=["validated", "unvalidated"])
    def test_weights_are_the_state_fit_leaves_in_the_model(
        self, dataset, tmp_path, eval_every
    ):
        """``weights`` is the best-validation snapshot when the run
        recorded one, else the live parameters — what ``fit`` tested."""
        model = build_model(dataset, "SASRec")
        make_trainer(
            model, dataset, "SASRec", epochs=1, eval_every=eval_every,
            checkpoint_dir=str(tmp_path),
        ).fit()
        snapshot = CheckpointStore(tmp_path).load_latest()
        groups = unpack_run_state(snapshot)
        validated = eval_every == 1
        assert snapshot["metadata"]["has_best"] is validated
        assert (groups["best"] is not None) is validated
        assert groups["weights"] is (groups["best"] if validated else groups["model"])
        state = model.state_dict()
        assert groups["weights"].keys() == state.keys()
        for name, array in state.items():
            assert groups["weights"][name].dtype == array.dtype, name
            assert np.array_equal(groups["weights"][name], array), name

    def test_optim_arrays_come_back_in_index_order(self):
        """Indices sort numerically (``10`` after ``9``), whatever the
        archive's key order."""
        state = {f"optim/m/{i}": np.full(2, float(i)) for i in reversed(range(12))}
        state["model/w"] = np.zeros(2)
        snapshot = {
            "path": "store",
            "state": state,
            "metadata": {"format": "repro-run-state-v1", "has_best": False},
        }
        arrays = unpack_run_state(snapshot)["optim"]["m"]
        assert [float(a[0]) for a in arrays] == [float(i) for i in range(12)]


class TestCorruptRecovery:
    def test_truncated_newest_falls_back_with_warning(
        self, dataset, reference, tmp_path
    ):
        """Corrupt the newest checkpoint: resume warns, uses the
        previous one, and still reproduces the reference bitwise."""
        ref = reference("SLIME4Rec", "float64")
        store_dir = tmp_path / "store"
        model = build_model(dataset, "SLIME4Rec")
        trainer = make_trainer(
            model, dataset, "SLIME4Rec", checkpoint_dir=str(store_dir)
        )
        injector = FaultInjector().crash_at("trainer.epoch", at=1)
        with faults.inject(injector):
            with pytest.raises(InjectedCrash):
                trainer.fit()
        files = sorted(store_dir.glob("ckpt-*.npz"))
        assert len(files) == 2  # epoch-boundary saves for epochs 1 and 2
        data = files[-1].read_bytes()
        files[-1].write_bytes(data[: len(data) // 3])

        model2 = build_model(dataset, "SLIME4Rec")
        trainer2 = make_trainer(
            model2, dataset, "SLIME4Rec", checkpoint_dir=str(store_dir)
        )
        with pytest.warns(RuntimeWarning, match="failed verification"):
            history = trainer2.fit(resume_from=store_dir)
        assert_matches_reference(history, model2, ref)


# ----------------------------------------------------------------------
# Numeric guards
# ----------------------------------------------------------------------

def poison_loss_once(model, at_call):
    """Make the ``at_call``-th model.loss return NaN (a transient fault)."""
    original = model.loss
    counter = {"n": 0}

    def poisoned(batch):
        loss = original(batch)
        if counter["n"] == at_call:
            loss.data = loss.data * np.nan
        counter["n"] += 1
        return loss

    model.loss = poisoned
    return counter


class TestNumericGuards:
    def test_raise_policy_fails_fast(self, dataset):
        model = build_model(dataset, "SASRec")
        poison_loss_once(model, at_call=2)
        trainer = make_trainer(model, dataset, "SASRec")
        with pytest.raises(FloatingPointError, match="non-finite loss at step 2"):
            trainer.fit()

    def test_skip_policy_drops_the_step_and_continues(self, dataset, reference):
        model = build_model(dataset, "SASRec")
        poison_loss_once(model, at_call=2)
        trainer = make_trainer(
            model, dataset, "SASRec", guard_policy="skip"
        )
        history = trainer.fit()
        assert history.nonfinite_losses == 1
        assert history.skipped_steps == 1
        assert len(history.losses) == EPOCHS
        assert all(np.isfinite(history.losses))
        assert "guards[" in history.summary()
        # The skipped update changes the trajectory relative to the
        # clean reference (one fewer optimizer step in epoch 1).
        ref = reference("SASRec", "float64")
        assert history.losses != ref["losses"]

    def test_skip_policy_counts_nonfinite_grads(self, dataset):
        model = build_model(dataset, "SASRec")
        trainer = make_trainer(model, dataset, "SASRec", guard_policy="skip")
        original = model.loss
        counter = {"n": 0}

        class GradPoisoningLoss:
            """Delegates to the real loss tensor, then corrupts a grad."""

            def __init__(self, loss):
                self._loss = loss
                self.data = loss.data

            def backward(self):
                self._loss.backward()
                param = trainer.optimizer.params[0]
                param.grad = np.full_like(param.grad, np.inf)

        def poisoned(batch):
            loss = original(batch)
            if counter["n"] == 1:
                loss = GradPoisoningLoss(loss)
            counter["n"] += 1
            return loss

        model.loss = poisoned
        history = trainer.fit()
        assert history.nonfinite_grads == 1
        assert history.nonfinite_losses == 0
        assert history.skipped_steps == 1

    def test_rollback_policy_recovers_transient_fault_bitwise(
        self, dataset, reference, tmp_path
    ):
        """A one-off NaN under the rollback policy: restore the last
        checkpoint, replay, and end up bitwise-equal to the clean run."""
        ref = reference("SASRec", "float64")
        spe = ref["steps_per_epoch"]
        model = build_model(dataset, "SASRec")
        # Poison a step in epoch 2, after epoch 1's boundary checkpoint.
        poison_loss_once(model, at_call=spe + 1)
        trainer = make_trainer(
            model, dataset, "SASRec",
            guard_policy="rollback", checkpoint_dir=str(tmp_path),
        )
        history = trainer.fit()
        assert history.rollbacks == 1
        assert history.nonfinite_losses == 1
        assert_matches_reference(history, model, ref)

    def test_rollback_gives_up_on_deterministic_divergence(
        self, dataset, reference, tmp_path
    ):
        ref = reference("SASRec", "float64")
        spe = ref["steps_per_epoch"]
        model = build_model(dataset, "SASRec")
        trainer = make_trainer(
            model, dataset, "SASRec",
            guard_policy="rollback", checkpoint_dir=str(tmp_path),
            max_rollbacks=2,
        )
        original = model.loss
        step_of = lambda: trainer._global_step  # noqa: E731

        def poisoned(batch):
            loss = original(batch)
            if step_of() == spe + 1:  # recurs on every replay
                loss.data = loss.data * np.nan
            return loss

        model.loss = poisoned
        with pytest.raises(FloatingPointError, match="giving up after 2 rollback"):
            trainer.fit()
        assert trainer.history.rollbacks == 2

    def test_rollback_without_any_checkpoint_raises(self, dataset, tmp_path):
        model = build_model(dataset, "SASRec")
        poison_loss_once(model, at_call=0)  # before the first save
        trainer = make_trainer(
            model, dataset, "SASRec",
            guard_policy="rollback", checkpoint_dir=str(tmp_path),
        )
        with pytest.raises(FloatingPointError, match="no checkpoint exists yet"):
            trainer.fit()

    def test_rollback_requires_checkpoint_dir(self, dataset):
        model = build_model(dataset, "SASRec")
        with pytest.raises(ValueError, match="requires checkpoint_dir"):
            make_trainer(model, dataset, "SASRec", guard_policy="rollback")

    def test_unknown_guard_policy_rejected(self, dataset):
        model = build_model(dataset, "SASRec")
        with pytest.raises(ValueError, match="guard_policy"):
            make_trainer(model, dataset, "SASRec", guard_policy="ignore")

    def test_spike_counter_wiring(self, dataset):
        model = build_model(dataset, "SASRec")
        # Any loss beats a vanishing threshold once the window warms up.
        trainer = make_trainer(
            model, dataset, "SASRec", spike_factor=1e-9, epochs=1
        )
        history = trainer.fit()
        assert history.loss_spikes > 0
        assert f"loss_spikes={history.loss_spikes}" in history.summary()


class TestClipGradNormNonFinite:
    class _P:
        def __init__(self, grad):
            self.grad = None if grad is None else np.asarray(grad, dtype=np.float64)

    def test_finite_grads_clip_as_before(self):
        params = [self._P([3.0, 4.0])]  # norm 5
        norm = clip_grad_norm(params, max_norm=1.0)
        assert norm == 5.0
        assert np.allclose(params[0].grad, [0.6, 0.8])

    def test_nan_grad_returns_nan_and_leaves_grads_unscaled(self):
        params = [self._P([1.0, np.nan]), self._P([2.0, 2.0])]
        norm = clip_grad_norm(params, max_norm=1.0)
        assert np.isnan(norm)
        # Unscaled: scaling by nan/inf would poison every parameter.
        assert np.array_equal(params[1].grad, [2.0, 2.0])

    def test_inf_grad_returns_inf_and_leaves_grads_unscaled(self):
        params = [self._P([np.inf]), self._P([7.0])]
        norm = clip_grad_norm(params, max_norm=1.0)
        assert np.isinf(norm)
        assert np.array_equal(params[1].grad, [7.0])

    def test_none_grads_skipped(self):
        params = [self._P(None), self._P([0.0])]
        assert clip_grad_norm(params, max_norm=1.0) == 0.0


# ----------------------------------------------------------------------
# RNG stream capture/restore
# ----------------------------------------------------------------------

class TestGeneratorState:
    def test_round_trip_reproduces_the_stream(self):
        rng = np.random.default_rng(123)
        rng.standard_normal(100)  # advance mid-stream
        state = generator_state(rng)
        first = rng.standard_normal(10)
        set_generator_state(rng, state)
        assert np.array_equal(rng.standard_normal(10), first)

    def test_state_is_a_deep_copy(self):
        rng = np.random.default_rng(0)
        state = generator_state(rng)
        rng.standard_normal(5)
        assert state == generator_state(np.random.default_rng(0))

    def test_state_is_json_serializable(self):
        # The trainer embeds generator states in JSON metadata.
        rng = np.random.default_rng(7)
        rng.integers(0, 100, size=33)
        state = generator_state(rng)
        restored = json.loads(json.dumps(state))
        fresh = np.random.default_rng(0)
        set_generator_state(fresh, restored)
        assert np.array_equal(fresh.integers(0, 1 << 32, 8),
                              rng.integers(0, 1 << 32, 8))


class TestModuleRngStateDict:
    def test_round_trip_restores_dropout_streams(self, dataset):
        model = build_model(dataset, "SLIME4Rec")
        batch = one_batch(dataset, with_same_target=True)
        model.train()
        snapshot = model.rng_state_dict()
        assert snapshot  # dropout generators exist
        first = float(model.loss(batch).data)  # train mode draws dropout masks
        model.load_rng_state_dict(snapshot)
        replay = float(model.loss(batch).data)
        assert first == replay

    def test_unexpected_key_raises(self, dataset):
        model = build_model(dataset, "SASRec")
        snapshot = model.rng_state_dict()
        snapshot["nonexistent.stream"] = {"x": 1}
        with pytest.raises(KeyError, match="nonexistent.stream"):
            model.load_rng_state_dict(snapshot)

    def test_missing_key_raises(self, dataset):
        model = build_model(dataset, "SASRec")
        snapshot = model.rng_state_dict()
        assert snapshot
        snapshot.pop(next(iter(snapshot)))
        with pytest.raises(KeyError):
            model.load_rng_state_dict(snapshot)

    def test_refused_snapshot_changes_no_stream(self, dataset):
        """A bad sampler entry is refused before any dropout stream
        moves, although the dropout streams come first in the walk."""
        model = build_baseline(
            "SASRec", dataset, hidden_dim=16, num_layers=1, seed=0,
            train_num_negatives=8,
        )
        snapshot = model.rng_state_dict()
        model.train()
        model.loss(one_batch(dataset))  # every stream moves on
        live = model.rng_state_dict()
        assert all(live[path] != snapshot[path] for path in snapshot if path != "_noise_rng")
        snapshot["_train_sampler"]["bit_state"] = {"bit_generator": "MT19937"}
        with pytest.raises(ValueError):
            model.load_rng_state_dict(snapshot)
        assert model.rng_state_dict() == live


class TestNegativeSamplerState:
    def test_round_trip_resumes_mid_stream(self):
        sampler = NegativeSampler(num_items=50, strategy="uniform", seed=3)
        sampler.sample((8, 4))  # advance mid-stream
        state = sampler.rng_state_dict()
        first = sampler.sample((8, 4))
        fresh = NegativeSampler(num_items=50, strategy="uniform", seed=999)
        fresh.load_rng_state_dict(state)
        assert np.array_equal(fresh.sample((8, 4)), first)

    def test_geometry_mismatch_rejected(self):
        sampler = NegativeSampler(num_items=50, strategy="uniform", seed=3)
        state = sampler.rng_state_dict()
        other = NegativeSampler(num_items=51, strategy="uniform", seed=3)
        with pytest.raises(ValueError, match="num_items"):
            other.load_rng_state_dict(state)


class TestBatchIteratorResume:
    @staticmethod
    def collect(iterator, epochs):
        out = []
        for _ in range(epochs):
            out.append(list(iterator.epoch()))
        return out

    @staticmethod
    def assert_batches_equal(a, b):
        assert np.array_equal(a.input_ids, b.input_ids)
        assert np.array_equal(a.targets, b.targets)
        if a.positive_ids is None:
            assert b.positive_ids is None
        else:
            assert np.array_equal(a.positive_ids, b.positive_ids)

    @pytest.mark.parametrize("with_same_target", [False, True])
    def test_mid_epoch_resume_replays_the_stream(self, dataset, with_same_target):
        make = lambda seed=5: BatchIterator(  # noqa: E731
            dataset, batch_size=16, with_same_target=with_same_target, seed=seed
        )
        full = self.collect(make(), epochs=2)

        partial = make()
        consumed = 0
        for batch in partial.epoch():
            consumed += 1
            if consumed == 2:
                break
        state = partial.state_dict()
        assert state["position"] == 2

        resumed = make(seed=12345)  # construction seed is irrelevant post-restore
        resumed.load_state_dict(state)
        rest = list(resumed.epoch())
        assert len(rest) == len(full[0]) - 2
        for got, want in zip(rest, full[0][2:]):
            self.assert_batches_equal(got, want)
        # The *next* epoch must also match: the generator position after
        # the replayed epoch equals the uninterrupted one.
        for got, want in zip(list(resumed.epoch()), full[1]):
            self.assert_batches_equal(got, want)

    def test_epoch_boundary_resume(self, dataset):
        make = lambda: BatchIterator(dataset, batch_size=16, seed=5)  # noqa: E731
        full = self.collect(make(), epochs=2)

        first = make()
        list(first.epoch())
        state = first.state_dict()
        assert state["position"] == 0

        resumed = make()
        resumed.load_state_dict(state)
        for got, want in zip(list(resumed.epoch()), full[1]):
            self.assert_batches_equal(got, want)

    def test_out_of_range_position_rejected(self, dataset):
        iterator = BatchIterator(dataset, batch_size=16, seed=5)
        state = iterator.state_dict()
        state["position"] = len(iterator) + 1
        with pytest.raises(ValueError, match="out of range"):
            iterator.load_state_dict(state)


# ----------------------------------------------------------------------
# Optimizer state round trips
# ----------------------------------------------------------------------

def one_batch(dataset, with_same_target=False):
    iterator = BatchIterator(
        dataset, batch_size=32, with_same_target=with_same_target, seed=0
    )
    return next(iter(iterator.epoch()))


def train_steps(model, optimizer, batch, steps):
    for _ in range(steps):
        optimizer.zero_grad()
        loss = model.loss(batch)
        loss.backward()
        optimizer.step()


class TestOptimizerState:
    def test_adam_round_trip_is_bitwise(self, dataset):
        batch = one_batch(dataset)
        model = build_model(dataset, "SASRec")
        adam = Adam(model.parameters(), lr=1e-3)
        train_steps(model, adam, batch, 3)
        state = adam.state_dict()
        assert state["step"] == 3

        model2 = build_model(dataset, "SASRec")
        model2.load_state_dict(model.state_dict())
        model2.load_rng_state_dict(model.rng_state_dict())  # dropout streams
        adam2 = Adam(model2.parameters(), lr=1e-3)
        adam2.load_state_dict(state)

        train_steps(model, adam, batch, 2)
        train_steps(model2, adam2, batch, 2)
        for a, b in zip(model.parameters(), model2.parameters()):
            assert np.array_equal(a.data, b.data)

    def test_adam_rejects_wrong_buffer_count(self, dataset):
        model = build_model(dataset, "SASRec")
        adam = Adam(model.parameters())
        state = adam.state_dict()
        state["m"] = state["m"][:-1]
        with pytest.raises(ValueError, match="m"):
            adam.load_state_dict(state)

    def test_adam_rejects_shape_mismatch(self, dataset):
        model = build_model(dataset, "SASRec")
        adam = Adam(model.parameters())
        state = adam.state_dict()
        state["v"][0] = np.zeros((2, 2), dtype=state["v"][0].dtype)
        with pytest.raises(ValueError, match="v buffer 0 mismatch"):
            adam.load_state_dict(state)

    def test_adam_refusal_leaves_its_state(self, dataset):
        """lr and m come before v in the state, and stay put when v is refused."""
        batch = one_batch(dataset)
        model = build_model(dataset, "SASRec")
        adam = Adam(model.parameters(), lr=1e-3)
        train_steps(model, adam, batch, 2)
        before = adam.state_dict()
        state = adam.state_dict()
        state["lr"] = 0.5
        state["step"] = 9
        state["m"] = [np.ones_like(m) for m in state["m"]]
        state["v"][-1] = np.zeros((2, 2))
        with pytest.raises(ValueError, match="v buffer"):
            adam.load_state_dict(state)
        after = adam.state_dict()
        assert (after["lr"], after["step"]) == (before["lr"], before["step"])
        for key in ("m", "v"):
            for a, b in zip(after[key], before[key]):
                assert np.array_equal(a, b), key


# ----------------------------------------------------------------------
# Satellite: dtype validation on Module.load_state_dict
# ----------------------------------------------------------------------

class TestLoadStateDictDtype:
    def test_dtype_mismatch_names_the_offending_key(self, dataset):
        model64 = build_model(dataset, "SASRec", dtype="float64")
        model32 = build_model(dataset, "SASRec", dtype="float32")
        with pytest.raises(ValueError, match="dtype mismatch for '"):
            model64.load_state_dict(model32.state_dict())
        # Two-pass validation: nothing was partially assigned.
        fresh = build_model(dataset, "SASRec", dtype="float64")
        for a, b in zip(model64.parameters(), fresh.parameters()):
            assert np.array_equal(a.data, b.data)

    def test_cast_true_converts_explicitly(self, dataset):
        model64 = build_model(dataset, "SASRec", dtype="float64")
        model32 = build_model(dataset, "SASRec", dtype="float32")
        model64.load_state_dict(model32.state_dict(), cast=True)
        for param, source in zip(
            model64.parameters(), model32.parameters()
        ):
            assert param.data.dtype == np.float64
            assert np.array_equal(param.data, source.data.astype(np.float64))


# ----------------------------------------------------------------------
# Durable writes: atomic publish + checksummed rotated store
# ----------------------------------------------------------------------

def payload(value, n=3):
    return {f"w{i}": np.full((4, 4), value + i, dtype=np.float64) for i in range(n)}


class TestAtomicWrites:
    def test_injected_write_failure_preserves_the_old_file(self, tmp_path):
        target = tmp_path / "model.npz"
        atomic_savez(target, {"w": np.arange(3.0)})
        before = target.read_bytes()
        with faults.inject(FaultInjector().io_error_at("checkpoint.write")):
            with pytest.raises(InjectedIOError):
                atomic_savez(target, {"w": np.arange(9.0)})
        assert target.read_bytes() == before
        assert not list(tmp_path.glob(".*tmp*")), "temp file leaked"
        with np.load(target) as restored:
            assert np.array_equal(restored["w"], np.arange(3.0))


class TestCheckpointStore:
    def test_rotation_keeps_last_k(self, tmp_path):
        store = CheckpointStore(tmp_path, keep_last=2)
        for step in range(1, 6):
            store.save(payload(step), {"format": "t", "step": step}, step=step)
        entries = store.entries()
        assert [e["step"] for e in entries] == [4, 5]
        assert sorted(p.name for p in tmp_path.glob("ckpt-*.npz")) == [
            "ckpt-0000000004.npz",
            "ckpt-0000000005.npz",
        ]
        assert store.latest_step() == 5

    def test_load_latest_verifies_checksum_and_falls_back(self, tmp_path):
        store = CheckpointStore(tmp_path, keep_last=3)
        for step in (1, 2):
            store.save(payload(step), {"step": step}, step=step)
        newest = tmp_path / "ckpt-0000000002.npz"
        data = newest.read_bytes()
        newest.write_bytes(data[: len(data) // 2])
        with pytest.warns(RuntimeWarning, match="falling back to the previous"):
            result = store.load_latest()
        assert result["step"] == 1
        assert np.array_equal(result["state"]["w0"], payload(1)["w0"])

    def test_all_corrupt_raises_filenotfound(self, tmp_path):
        store = CheckpointStore(tmp_path, keep_last=3)
        store.save(payload(1), {"step": 1}, step=1)
        (tmp_path / "ckpt-0000000001.npz").write_bytes(b"garbage")
        with pytest.warns(RuntimeWarning):
            with pytest.raises(FileNotFoundError, match="no loadable checkpoint"):
                store.load_latest()

    def test_empty_store(self, tmp_path):
        store = CheckpointStore(tmp_path / "nowhere")
        assert store.latest_step() is None
        with pytest.raises(FileNotFoundError):
            store.load_latest()

    def test_missing_manifest_rebuilt_from_directory(self, tmp_path):
        store = CheckpointStore(tmp_path, keep_last=3)
        for step in (3, 7):
            store.save(payload(step), {"step": step}, step=step)
        (tmp_path / CheckpointStore.MANIFEST).unlink()
        rebuilt = CheckpointStore(tmp_path, keep_last=3)
        assert [e["step"] for e in rebuilt.entries()] == [3, 7]
        assert rebuilt.load_latest()["step"] == 7

    def test_corrupt_manifest_warns_and_degrades(self, tmp_path):
        store = CheckpointStore(tmp_path, keep_last=3)
        store.save(payload(1), {"step": 1}, step=1)
        (tmp_path / CheckpointStore.MANIFEST).write_text("{not json", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="rebuilding the entry list"):
            assert [e["step"] for e in store.entries()] == [1]

    def test_injected_io_error_during_save_leaves_store_loadable(self, tmp_path):
        store = CheckpointStore(tmp_path, keep_last=3)
        store.save(payload(1), {"step": 1}, step=1)
        with faults.inject(FaultInjector().io_error_at("checkpoint.write")):
            with pytest.raises(OSError):
                store.save(payload(2), {"step": 2}, step=2)
        assert not list(tmp_path.glob(".*tmp*"))
        assert store.load_latest()["step"] == 1

    def test_crash_after_rotation_loses_nothing(self, tmp_path):
        # checkpoint.end trips after rotation completes: a crash there
        # must find the new checkpoint published and the prune already
        # applied — the fully-durable end state.
        store = CheckpointStore(tmp_path, keep_last=2)
        for step in (1, 2):
            store.save(payload(step), {"step": step}, step=step)
        with faults.inject(FaultInjector().crash_at("checkpoint.end", at=3)):
            with pytest.raises(InjectedCrash):
                store.save(payload(3), {"step": 3}, step=3)
        assert not list(tmp_path.glob(".*tmp*"))
        assert store.load_latest()["step"] == 3
        assert [e["step"] for e in store.entries()] == [2, 3]

    def test_manifest_entry_outside_the_store_never_unlinked(self, tmp_path):
        """A manifest naming ``../victim.txt`` must not steer rotation."""
        store_dir = tmp_path / "store"
        victim = tmp_path / "victim.txt"
        victim.write_text("keep me", encoding="utf-8")
        store_dir.mkdir()
        (store_dir / CheckpointStore.MANIFEST).write_text(
            json.dumps({"checkpoints": [{"file": "../victim.txt", "step": 0}]}),
            encoding="utf-8",
        )
        store = CheckpointStore(store_dir, keep_last=1)
        with pytest.warns(RuntimeWarning, match="rebuilding the entry list"):
            store.save(payload(1), {"step": 1}, step=1)
        assert victim.read_text(encoding="utf-8") == "keep me"
        assert [e["file"] for e in store.entries()] == ["ckpt-0000000001.npz"]

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda e: {"step": e["step"]},
            lambda e: {**e, "step": str(e["step"])},
            lambda e: {**e, "sha256": 5},
        ],
        ids=["missing-file", "string-step", "int-sha256"],
    )
    def test_malformed_manifest_entry_warns_and_rescans(self, tmp_path, corrupt):
        """A malformed newest entry degrades to the directory scan like
        an unreadable manifest instead of raising KeyError/TypeError."""
        store = CheckpointStore(tmp_path, keep_last=3)
        for step in (1, 2):
            store.save(payload(step), {"step": step}, step=step)
        manifest = tmp_path / CheckpointStore.MANIFEST
        raw = json.loads(manifest.read_text(encoding="utf-8"))
        raw["checkpoints"][-1] = corrupt(raw["checkpoints"][-1])
        manifest.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="rebuilding the entry list"):
            result = store.load_latest()
        assert result["step"] == 2
        assert np.array_equal(result["state"]["w0"], payload(2)["w0"])

    def test_keep_last_validated(self, tmp_path):
        with pytest.raises(ValueError, match="keep_last"):
            CheckpointStore(tmp_path, keep_last=0)


# ----------------------------------------------------------------------
# Fault injector mechanics
# ----------------------------------------------------------------------

class TestFaultInjector:
    def test_noop_without_installed_injector(self):
        faults.trip("trainer.step", 5)  # must not raise
        assert faults.active_injector() is None

    def test_crash_matches_scheduled_index_exactly(self):
        injector = FaultInjector().crash_at("trainer.step", at=2)
        with faults.inject(injector):
            faults.trip("trainer.step", 0)
            faults.trip("trainer.step", 1)
            with pytest.raises(InjectedCrash) as info:
                faults.trip("trainer.step", 2)
        assert info.value.point == "trainer.step"
        assert info.value.index == 2
        assert injector.fired == [("trainer.step", 2)]
        assert injector.counts["trainer.step"] == 3

    def test_each_fault_fires_at_most_once(self):
        injector = FaultInjector().crash_at("trainer.epoch")
        with faults.inject(injector):
            with pytest.raises(InjectedCrash):
                faults.trip("trainer.epoch")
            faults.trip("trainer.epoch")  # re-trip after "resume": no fire

    def test_unindexed_trip_counts_occurrences(self):
        injector = FaultInjector().io_error_at("checkpoint.write", at=1)
        with faults.inject(injector):
            faults.trip("checkpoint.write")  # occurrence 0
            with pytest.raises(InjectedIOError):
                faults.trip("checkpoint.write")  # occurrence 1

    def test_injected_crash_is_not_an_exception(self):
        # `except Exception` recovery paths must not swallow a crash.
        assert not issubclass(InjectedCrash, Exception)
        assert issubclass(InjectedIOError, OSError)

    def test_injector_uninstalled_on_exit(self):
        injector = FaultInjector()
        with faults.inject(injector):
            assert faults.active_injector() is injector
        assert faults.active_injector() is None


# ----------------------------------------------------------------------
# CLI flags
# ----------------------------------------------------------------------

class TestCliFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--resume"],
            ["--checkpoint-every", "10"],
            ["--guard-policy", "rollback"],
        ],
    )
    def test_flags_requiring_checkpoint_dir_fail_fast(self, argv, capsys):
        from repro.train.cli import main

        with pytest.raises(SystemExit):
            main(["--model", "SASRec", *argv])
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_end_to_end_train_and_resume(self, tmp_path, capsys):
        from repro.train.cli import main

        base = [
            "--model", "SASRec", "--dataset", "beauty", "--scale", "0.1",
            "--max-len", "8", "--hidden-dim", "8", "--num-layers", "1",
            "--epochs", "1", "--batch-size", "64", "--quiet",
            "--checkpoint-dir", str(tmp_path / "run"),
        ]
        assert main(base) == 0
        assert (tmp_path / "run" / "manifest.json").exists()
        capsys.readouterr()
        assert main([*base, "--epochs", "2", "--resume"]) == 0
        store = CheckpointStore(tmp_path / "run")
        meta = store.load_latest()["metadata"]
        assert meta["epoch"] == 2
