"""Static-graph tape capture & replay, pinned bitwise against the dynamic engine.

The contract under test (``repro.autograd.graph``): a training step
captured once into a :class:`~repro.autograd.graph.Tape` and replayed
on subsequent same-shape batches produces **bitwise-identical** losses,
gradients and parameter trajectories to the dynamic engine — across
models and dtypes — and every divergence the tape cannot absorb
(ragged batch, ``model.training`` flip, parameter rebind, replay-unsafe
op) triggers the documented fallback or recapture instead of silently
wrong numbers.
"""

import logging

import numpy as np
import pytest

from repro.autograd import functional as F
from repro.autograd.graph import (
    GraphCaptureError,
    TapeExecutor,
    capture,
    is_capturing,
)
from repro.autograd.tensor import Tensor
from repro.baselines import build_baseline
from repro.baselines.duorec import DuoRec
from repro.baselines.fmlprec import FMLPRec
from repro.baselines.gru4rec import GRU4Rec
from repro.baselines.s3rec import S3Rec
from repro.baselines.sasrec import SASRec
from repro.core import Slime4Rec, SlimeConfig
from repro.data.batching import Batch
from repro.data.dataset import SequenceDataset
from repro.data.synthetic import SyntheticConfig, generate_interactions
from repro.optim import Adam, clip_grad_norm
from repro.train import TrainConfig, Trainer

NUM_ITEMS = 30
MAX_LEN = 12


def random_batch(seed=0, batch=6, with_positive=True, ragged=False):
    rng = np.random.default_rng(seed)
    inputs = rng.integers(1, NUM_ITEMS + 1, size=(batch, MAX_LEN))
    targets = rng.integers(1, NUM_ITEMS + 1, size=batch)
    positives = None
    if with_positive:
        positives = rng.integers(1, NUM_ITEMS + 1, size=(batch, MAX_LEN))
    pad = MAX_LEN // 3
    if ragged:  # per-row history lengths, so the padding differs per step
        pad = MAX_LEN - rng.integers(1, MAX_LEN + 1, size=(batch, 1))
    inputs *= np.arange(MAX_LEN) >= pad  # left padding
    return Batch(input_ids=inputs, targets=targets, positive_ids=positives)


def build_slime(dtype="float64", **overrides):
    cfg = SlimeConfig(
        num_items=NUM_ITEMS, max_len=MAX_LEN, hidden_dim=16, num_layers=2,
        cl_weight=0.1, seed=0, dtype=dtype, **overrides,
    )
    return Slime4Rec(cfg)


#: SLIME4Rec and its single-branch ablations w/oD and w/oS.
SLIME_VARIANTS = {
    "SLIME4Rec": {},
    "SLIME4Rec-woD": {"use_dfs": False},
    "SLIME4Rec-woS": {"use_sfs": False},
}


def build_model(name, dtype="float64"):
    if name in SLIME_VARIANTS:
        return build_slime(dtype, **SLIME_VARIANTS[name])
    cls = {"SASRec": SASRec, "DuoRec": DuoRec, "FMLP-Rec": FMLPRec, "GRU4Rec": GRU4Rec}[name]
    kwargs = dict(num_items=NUM_ITEMS, max_len=MAX_LEN, hidden_dim=16, seed=0, dtype=dtype)
    if name != "GRU4Rec":
        kwargs["num_layers"] = 1
    return cls(**kwargs)


def run_trajectory(model, static, steps=10, seed=0, with_positive=True, ragged=False):
    """Optimizer-coupled run: per-step losses and per-step named grads.

    The grad snapshot is taken *after* clipping, so the comparison pins
    the whole backward + clip + Adam pipeline, not just the forward.
    """
    model.train()
    optimizer = Adam(model.parameters())
    executor = TapeExecutor(model) if static else None
    losses, grads = [], []
    for step in range(steps):
        batch = random_batch(seed=seed + step, with_positive=with_positive, ragged=ragged)
        optimizer.zero_grad()
        if static:
            result = executor.step(batch)
            loss_value = result.loss
            result.backward()
        else:
            loss = model.loss(batch)
            loss_value = float(loss.data)
            loss.backward()
        clip_grad_norm(optimizer.params, 1.0)
        grads.append(
            {n: p.grad.copy() for n, p in model.named_parameters() if p.grad is not None}
        )
        optimizer.step()
        losses.append(loss_value)
    return losses, grads, executor


def assert_trajectories_bitwise(dynamic, static):
    d_losses, d_grads, _ = dynamic
    s_losses, s_grads, executor = static
    assert d_losses == s_losses  # float equality == bitwise for finite values
    for step, (dg, sg) in enumerate(zip(d_grads, s_grads)):
        assert dg.keys() == sg.keys()
        for name in dg:
            assert np.array_equal(dg[name], sg[name]), f"step {step}: {name}"
    # The static run must actually have replayed, not fallen back.
    stats = executor.stats()
    assert stats["captures"] == 1
    assert stats["replays"] == len(s_losses) - 1
    assert stats["fallback_steps"] == 0
    assert stats["disabled_reason"] is None


# ----------------------------------------------------------------------
# Tentpole: replay-vs-dynamic bitwise equality matrix
# ----------------------------------------------------------------------


class TestReplayBitwiseMatrix:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize(
        "name", [*SLIME_VARIANTS, "SASRec", "DuoRec", "FMLP-Rec", "GRU4Rec"]
    )
    def test_losses_and_grads_bitwise(self, name, dtype):
        with_positive = name in SLIME_VARIANTS or name == "DuoRec"
        dynamic = run_trajectory(
            build_model(name, dtype), static=False, with_positive=with_positive
        )
        static = run_trajectory(
            build_model(name, dtype), static=True, with_positive=with_positive
        )
        assert_trajectories_bitwise(dynamic, static)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("name", ["SASRec", "DuoRec"])
    def test_padding_changes_between_steps_bitwise(self, name, dtype):
        """Each replayed step has a different padding pattern: the block
        mask, and the last-query mask row viewing it, must follow the
        in-place padding refresh."""
        dynamic = run_trajectory(build_model(name, dtype), static=False, ragged=True)
        static = run_trajectory(build_model(name, dtype), static=True, ragged=True)
        assert_trajectories_bitwise(dynamic, static)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_trainer_flag_end_to_end_bitwise(self, small_dataset, dtype):
        """SlimeConfig(static_graph=True) through Trainer.fit, vs dynamic:
        same-target batches from the real iterator, losses and every
        parameter bitwise, one capture."""
        params, losses = {}, {}
        for static in (False, True):
            model, trainer = fit_slime(small_dataset, static=static, epochs=2, dtype=dtype)
            params[static] = model.state_dict()
            losses[static] = trainer.history.losses
            if static:
                stats = trainer._executor.stats()
                assert stats["captures"] == 1 and stats["replays"] > 0
        assert losses[False] == losses[True]
        assert params[False].keys() == params[True].keys()
        for name in params[False]:
            assert np.array_equal(params[False][name], params[True][name]), name


# ----------------------------------------------------------------------
# Capture -> checkpoint -> resume, bitwise vs an uninterrupted dynamic run
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_dataset():
    cfg = SyntheticConfig(num_users=60, num_items=40, seed=8)
    return SequenceDataset(generate_interactions(cfg), max_len=10)


def fit_slime(
    dataset, static, epochs, checkpoint_dir=None, resume_from=None, dtype="float64"
):
    model = build_baseline(
        "SLIME4Rec", dataset, hidden_dim=16, num_layers=1, seed=0,
        static_graph=static, dtype=dtype,
    )
    config = TrainConfig(
        epochs=epochs, batch_size=32, patience=0, verbose=False,
        checkpoint_dir=checkpoint_dir,
    )
    trainer = Trainer(model, dataset, config, with_same_target=True)
    trainer.fit(resume_from=resume_from)
    return model, trainer


class TestCaptureCheckpointResume:
    def test_static_resume_matches_uninterrupted_dynamic_run(
        self, small_dataset, tmp_path
    ):
        reference, _ = fit_slime(small_dataset, static=False, epochs=2)
        store = str(tmp_path / "store")
        # Static run stops after epoch 1 (boundary checkpoint written) ...
        fit_slime(small_dataset, static=True, epochs=1, checkpoint_dir=store)
        # ... and a fresh static trainer resumes it to epoch 2.  The tape
        # is re-captured from restored weights + restored RNG streams, so
        # the continued trajectory must land exactly on the uninterrupted
        # dynamic run's parameters.
        resumed, trainer = fit_slime(
            small_dataset, static=True, epochs=2,
            checkpoint_dir=store, resume_from=store,
        )
        stats = trainer._executor.stats()
        assert stats["captures"] == 1 and stats["replays"] > 0
        ref_state = reference.state_dict()
        for name, value in resumed.state_dict().items():
            assert np.array_equal(value, ref_state[name]), name


# ----------------------------------------------------------------------
# Tape invalidation and fallback rules
# ----------------------------------------------------------------------


class TestTapeInvalidation:
    def test_ragged_final_batch_falls_back_per_step(self):
        model = build_slime()
        model.train()
        twin = build_slime()
        twin.train()
        executor = TapeExecutor(model)
        expected_modes = ["capture", "dynamic", "replay"]
        for step, batch_size in enumerate((6, 4, 6)):
            batch = random_batch(seed=step, batch=batch_size)
            result = executor.step(batch)
            assert result.mode == expected_modes[step]
            result.backward()
            ref = twin.loss(batch)
            ref.backward()
            assert result.loss == float(ref.data)
        stats = executor.stats()
        assert stats["fallback_steps"] == 1
        assert stats["recaptures"] == 0  # the tape survived the ragged step

    def test_training_mode_flip_triggers_recapture(self):
        model = build_slime()
        model.train()
        executor = TapeExecutor(model)
        assert executor.step(random_batch(seed=0)).mode == "capture"
        model.eval()
        assert executor.step(random_batch(seed=1)).mode == "capture"
        assert executor.stats()["recaptures"] == 1

    def test_load_state_dict_triggers_recapture(self):
        model = build_slime()
        model.train()
        executor = TapeExecutor(model)
        assert executor.step(random_batch(seed=0)).mode == "capture"
        # Same values, fresh payload arrays: the binding snapshot must
        # notice the rebind, not compare contents.
        model.load_state_dict(model.state_dict())
        assert executor.step(random_batch(seed=1)).mode == "capture"
        assert executor.stats()["recaptures"] == 1

    def test_dtype_cast_recaptures_and_reallocates_grad_buffers(self):
        model = build_slime()
        model.train()
        executor = TapeExecutor(model)
        result = executor.step(random_batch(seed=0))
        result.backward()
        old_ids = {n: id(p.grad) for n, p in model.named_parameters() if p.grad is not None}
        model.to(np.float32)  # cast=True-style payload change: new dtype
        result = executor.step(random_batch(seed=1))
        assert result.mode == "capture"
        result.backward()
        for name, p in model.named_parameters():
            if p.grad is None:
                continue
            assert p.grad.dtype == np.float32, name
            assert id(p.grad) != old_ids[name], name

    def test_capture_error_names_the_unsafe_op(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with capture():
            with pytest.raises(GraphCaptureError, match="_replayless_backward"):
                F._make(x.data * 2.0, (x,), _replayless_backward)
        assert not is_capturing()

    def test_noise_eps_disables_tape_and_stays_bitwise(self):
        model = build_slime(noise_eps=0.1)
        model.train()
        twin = build_slime(noise_eps=0.1)
        twin.train()
        executor = TapeExecutor(model)
        for step in range(3):
            batch = random_batch(seed=step)
            result = executor.step(batch)
            assert result.mode == "dynamic"
            result.backward()
            ref = twin.loss(batch)
            ref.backward()
            # The failed first capture rewound the RNG streams, so even
            # the step that tripped the fallback matches bitwise.
            assert result.loss == float(ref.data)
            grads = dict(twin.named_parameters())
            for name, p in model.named_parameters():
                if p.grad is not None:
                    assert np.array_equal(p.grad, grads[name].grad), name
        stats = executor.stats()
        assert stats["captures"] == 0
        assert stats["fallback_steps"] == 3
        assert "inject_noise" in stats["disabled_reason"]

    def test_s3rec_pretrain_switch_disables_capture(self):
        model = S3Rec(
            num_items=NUM_ITEMS, max_len=MAX_LEN, hidden_dim=16,
            num_layers=1, seed=0, pretrain_steps=2,
        )
        model.train()
        executor = TapeExecutor(model)
        result = executor.step(random_batch(seed=0, with_positive=False))
        assert result.mode == "dynamic"
        assert "S3Rec" in executor.stats()["disabled_reason"]

    def test_fallback_reason_logged_once(self, caplog):
        model = build_slime()
        model.train()
        executor = TapeExecutor(model)
        executor.step(random_batch(seed=0))
        with caplog.at_level(logging.WARNING, logger="repro.autograd.graph"):
            executor.step(random_batch(seed=1, batch=4))
            executor.step(random_batch(seed=2, batch=4))
        geometry_warnings = [
            r for r in caplog.records if "geometry diverged" in r.getMessage()
        ]
        assert len(geometry_warnings) == 1


def _replayless_backward(grad):  # pragma: no cover - never called
    raise AssertionError("backward of a capture-rejected op must not run")


# ----------------------------------------------------------------------
# Grad-buffer ownership under repeated replays
# ----------------------------------------------------------------------


class TestGradBufferOwnership:
    def test_buffers_zeroed_not_reallocated_across_replays(self):
        model = build_slime()
        model.train()
        executor = TapeExecutor(model)
        buffer_ids = []
        for step in range(4):
            result = executor.step(random_batch(seed=step))
            result.backward()
            buffer_ids.append(
                {n: id(p.grad) for n, p in model.named_parameters() if p.grad is not None}
            )
        for later in buffer_ids[1:]:
            assert later == buffer_ids[0]

    def test_captures_interleaved_with_dynamic_steps(self):
        """The double-release regression: three capture/replay rounds with
        plain dynamic steps in between must keep grads correct — dynamic
        backward rebinds ``p.grad`` to fresh (borrowed) arrays, and the
        next replay must re-seed its owned buffers rather than scale or
        accumulate into the orphaned ones."""
        model = build_slime()
        model.train()
        twin = build_slime()
        twin.train()
        executor = TapeExecutor(model)
        for step in range(9):
            batch = random_batch(seed=step)
            if step % 3 == 2:  # every third step runs outside the executor
                loss = model.loss(batch)
                loss.backward()
                loss_value = float(loss.data)
            else:
                result = executor.step(batch)
                result.backward()
                loss_value = result.loss
            ref = twin.loss(batch)
            ref.backward()
            assert loss_value == float(ref.data), f"step {step}"
            grads = dict(twin.named_parameters())
            for name, p in model.named_parameters():
                if p.grad is not None:
                    assert np.array_equal(p.grad, grads[name].grad), f"step {step}: {name}"
            for m in (model, twin):
                for p in m.parameters():
                    p.zero_grad()

    def test_clip_rebinds_shared_borrowed_grads(self):
        """A backward that hands the *same* array to two parents must not
        double-scale under clipping: borrowed grads are rebound, not
        scaled in place."""
        x = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        y = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        z = F.add(x, y)
        z.backward(np.array([3.0, 4.0]))
        assert x.grad is y.grad  # shared borrowed reference
        norm = clip_grad_norm([x, y], 1.0)
        expected = np.array([3.0, 4.0]) * (1.0 / norm)
        np.testing.assert_allclose(x.grad, expected)
        np.testing.assert_allclose(y.grad, expected)

    def test_clip_scales_executor_buffers_in_place(self):
        model = build_slime()
        model.train()
        optimizer = Adam(model.parameters())
        executor = TapeExecutor(model)
        for step in range(2):
            optimizer.zero_grad()
            result = executor.step(random_batch(seed=step))
            result.backward()
            before = {
                n: id(p.grad) for n, p in model.named_parameters() if p.grad is not None
            }
            clip_grad_norm(optimizer.params, 1e-6)  # tiny cap: always scales
            after = {
                n: id(p.grad) for n, p in model.named_parameters() if p.grad is not None
            }
            assert before == after  # owned buffers scaled in place
            optimizer.step()
