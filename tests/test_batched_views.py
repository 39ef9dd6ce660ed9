"""Stacked multi-view contrastive encode: equivalence and semantics.

Every contrastive model (SLIME4Rec, DuoRec, CL4SRec, CoSeRec) encodes
its three views per step as one stacked ``(3B, N, d)`` walk
(:meth:`~repro.core.encoder.SequentialEncoderBase.encode_views`).
Covered here:

- the stacked loss against a test-side **sequential oracle**
  (:func:`sequential_loss`: three ``user_representation`` calls, then
  ``prediction_loss`` and ``info_nce_loss``) — loss trajectories and
  parameter gradients to 1e-9 in float64 and 1e-4 in float32, with
  ``cl_weight`` zero and positive;
- **per-view Figure-6 noise**: with one view ``inject_noise`` is the
  whole-batch ``uniform(-eps*std(x), eps*std(x))`` draw bit for bit;
  inside a stacked encode each view block is scaled by its own std;
- the **view count** ``encode_views`` sets for ``inject_noise`` is
  restored when the stacked pass raises (a stacked dropout draw equals
  V per-view draws by the one mask rule, a case of
  ``test_last_position.py::test_dropout_is_the_seed_formula``).

The prediction head itself is pinned in ``test_linear_cross_entropy.py``.
"""

import copy

import numpy as np
import pytest

from repro.autograd import functional as F
from repro.autograd.graph import capture
from repro.autograd.tensor import Tensor
from repro.baselines import CL4SRec, CoSeRec, DuoRec
from repro.baselines.cl4srec import augment_batch
from repro.core import Slime4Rec, SlimeConfig
from repro.core.contrastive import info_nce_loss
from repro.data.augmentation import ItemCorrelation
from repro.data.batching import Batch
from repro.core.encoder import _view_count
from repro.optim import Adam

NUM_ITEMS, MAX_LEN = 30, 12
CONTRASTIVE = ["SLIME4Rec", "DuoRec", "CL4SRec", "CoSeRec"]


def random_batch(batch=6, seed=0, with_positive=True):
    rng = np.random.default_rng(seed)
    inputs = rng.integers(1, NUM_ITEMS + 1, size=(batch, MAX_LEN))
    inputs[:, : MAX_LEN // 3] = 0  # left padding
    targets = rng.integers(1, NUM_ITEMS + 1, size=batch)
    positives = None
    if with_positive:
        positives = rng.integers(1, NUM_ITEMS + 1, size=(batch, MAX_LEN))
    return Batch(input_ids=inputs, targets=targets, positive_ids=positives)


def build(name, dtype="float64", cl_weight=0.1, **overrides):
    if name == "SLIME4Rec":
        return Slime4Rec(SlimeConfig(
            num_items=NUM_ITEMS, max_len=MAX_LEN, hidden_dim=16, num_layers=2,
            cl_weight=cl_weight, seed=0, dtype=dtype, **overrides,
        ))
    cls = {"DuoRec": DuoRec, "CL4SRec": CL4SRec, "CoSeRec": CoSeRec}[name]
    model = cls(
        num_items=NUM_ITEMS, max_len=MAX_LEN, hidden_dim=16, num_layers=1, num_heads=2,
        cl_weight=cl_weight, seed=0, dtype=dtype, **overrides,
    )
    if name == "CoSeRec":
        # Fitted co-occurrence statistics, so the augmentations draw.
        rng = np.random.default_rng(9)
        model._correlation = ItemCorrelation(
            [rng.integers(1, NUM_ITEMS + 1, size=8).tolist() for _ in range(40)]
        )
    return model


def sequential_loss(model, batch):
    """The oracle: each view through its own ``user_representation`` call.

    Exactly the sequential composition the stacked encode replaced.
    Dropout sites own their generators and CL4SRec/CoSeRec draw both
    augmentations from ``_aug_rng`` in order, so the oracle sees the
    stacked path's masks and views.
    """
    config = getattr(model, "config", model)
    augmented = hasattr(model, "_augment_row")
    if config.cl_weight <= 0.0 or (not augmented and batch.positive_ids is None):
        return model.recommendation_loss(batch.input_ids, batch.targets)
    user = model.user_representation(batch.input_ids)
    if augmented:
        view_a = model.user_representation(augment_batch(model, batch.input_ids))
        view_b = model.user_representation(augment_batch(model, batch.input_ids))
    else:
        view_a = model.user_representation(batch.input_ids)
        view_b = model.user_representation(batch.positive_ids)
    rec = model.prediction_loss(user, batch.targets)
    cl = info_nce_loss(view_a, view_b, temperature=config.cl_temperature)
    return F.add(rec, F.mul(cl, config.cl_weight))


def stacked_loss(model, batch):
    return model.loss(batch)


def train_losses(model, loss_fn, steps=3):
    """Optimizer-coupled loss trajectory: any divergence compounds."""
    model.train()
    optimizer = Adam(model.parameters())
    losses = []
    for step in range(steps):
        optimizer.zero_grad()
        loss = loss_fn(model, random_batch(seed=step))
        loss.backward()
        optimizer.step()
        losses.append(float(loss.data))
    return np.array(losses)


# ----------------------------------------------------------------------
# Stacked encode vs the sequential oracle
# ----------------------------------------------------------------------


class TestStackedMatchesSequentialOracle:
    @pytest.mark.parametrize("cl_weight", [0.0, 0.2])
    @pytest.mark.parametrize("name", CONTRASTIVE)
    def test_float64_trajectory_matches(self, name, cl_weight):
        a = train_losses(build(name, cl_weight=cl_weight), stacked_loss)
        b = train_losses(build(name, cl_weight=cl_weight), sequential_loss)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("name", CONTRASTIVE)
    def test_float32_trajectory_matches_loosely(self, name):
        a = train_losses(build(name, dtype="float32"), stacked_loss)
        b = train_losses(build(name, dtype="float32"), sequential_loss)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-4)

    @pytest.mark.parametrize("name", CONTRASTIVE)
    def test_gradients_match(self, name):
        batch = random_batch()
        grads = {}
        for loss_fn in (stacked_loss, sequential_loss):
            model = build(name)
            model.train()
            loss_fn(model, batch).backward()
            grads[loss_fn] = {key: p.grad.copy() for key, p in model.named_parameters()}
        stacked, sequential = grads[stacked_loss], grads[sequential_loss]
        assert stacked.keys() == sequential.keys()
        for key in stacked:
            np.testing.assert_allclose(
                stacked[key], sequential[key], rtol=0, atol=1e-9, err_msg=key
            )

    def test_missing_positive_falls_back_to_rec_loss(self):
        # Two identically-seeded models so both calls consume identical
        # dropout streams: loss(batch) without positives must be exactly
        # the plain recommendation loss.
        model = build("SLIME4Rec")
        twin = build("SLIME4Rec")
        batch = random_batch(with_positive=False)
        model.train()
        twin.train()
        loss = model.loss(batch)
        rec = twin.recommendation_loss(batch.input_ids, batch.targets)
        assert float(loss.data) == pytest.approx(float(rec.data), abs=1e-12)

    def test_encode_views_rejects_shape_mismatch(self):
        model = build("SLIME4Rec")
        with pytest.raises(ValueError):
            model.encode_views(
                (np.zeros((4, 12), dtype=np.int64), np.zeros((3, 12), dtype=np.int64))
            )

    def test_encode_views_needs_two_views(self):
        model = build("SLIME4Rec")
        with pytest.raises(ValueError):
            model.encode_views((np.zeros((4, 12), dtype=np.int64),))


# ----------------------------------------------------------------------
# Per-view Figure-6 noise
# ----------------------------------------------------------------------


class TestPerViewNoise:
    EPS = 0.1

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_single_view_is_whole_batch_formula(self, dtype):
        """V=1 (evaluation, the Figure-6 sweep): the historical draw."""
        model = build("SLIME4Rec", dtype=dtype, noise_eps=self.EPS)
        x = Tensor(np.random.default_rng(4).normal(size=(5, MAX_LEN, 16)).astype(dtype))
        reference_rng = copy.deepcopy(model._noise_rng)
        got = model.inject_noise(x)
        scale = float(x.data.std()) * self.EPS
        noise = reference_rng.uniform(-scale, scale, size=x.shape).astype(x.dtype)
        np.testing.assert_array_equal(got.data, x.data + noise)
        assert model._noise_rng.bit_generator.state == reference_rng.bit_generator.state

    def test_view_blocks_scale_by_their_own_std(self):
        """Three blocks four decades apart: each one's noise is bounded
        by its own std, far below the whole-batch std's bound."""
        model = build("SLIME4Rec", noise_eps=self.EPS)
        rng = np.random.default_rng(5)
        blocks = [rng.normal(scale=s, size=(4, MAX_LEN, 16)) for s in (1.0, 100.0, 0.01)]
        x = np.concatenate(blocks)
        # Inside encode_views, the user-vector hook sees the view count.
        model.user_representation = lambda ids: model.inject_noise(Tensor(x))
        views = model.encode_views([np.zeros((4, MAX_LEN), dtype=np.int64)] * 3)
        noise = np.concatenate([v.data for v in views]) - x
        for i, block in enumerate(blocks):
            bound = self.EPS * block.std()
            part = np.abs(noise[i * 4 : (i + 1) * 4])
            assert part.max() <= bound * (1 + 1e-9), i
            assert part.max() > 0.5 * bound, i  # drawn at its block's scale
        assert np.abs(noise[8:]).max() < 1e-3 * self.EPS * x.std()

    @pytest.mark.parametrize("name", ["SLIME4Rec", "DuoRec"])
    def test_encode_views_draws_per_view_block_in_order(self, name):
        """Under the stacked training encode every layer input gets one
        draw per view block, scaled by that block's std, in view order."""
        model = build(name, noise_eps=self.EPS)
        model.train()
        reference_rng = copy.deepcopy(model._noise_rng)
        records = []
        original = model.inject_noise

        def spy(x):
            out = original(x)
            records.append((x.data.copy(), out.data.copy()))
            return out

        model.inject_noise = spy
        batch = random_batch(batch=4)
        model.loss(batch)
        num_layers = len(model.layers) if name == "SLIME4Rec" else len(model.encoder.blocks)
        assert len(records) == num_layers
        for x, out in records:
            assert x.shape[0] == 12
            for i in range(3):
                part = x[i * 4 : (i + 1) * 4]
                scale = float(part.std()) * self.EPS
                noise = reference_rng.uniform(-scale, scale, size=part.shape).astype(x.dtype)
                np.testing.assert_array_equal(out[i * 4 : (i + 1) * 4], part + noise)
                assert np.abs(out[i * 4 : (i + 1) * 4] - part).max() <= scale * (1 + 1e-9)


# ----------------------------------------------------------------------
# The stacked pass's view count
# ----------------------------------------------------------------------


class TestEncodeViewsViewCount:
    def test_view_count_restored_after_raising_forward(self):
        """An exception inside a batched encode must not leak view state."""
        model = build("SLIME4Rec")
        model.train()
        bad = random_batch()
        # Sabotage the stacked pass: views with a wrong length make
        # encode_views raise before, and a raising encode makes
        # user_representation raise after, the count is set.
        assert _view_count() == 1
        with pytest.raises(ValueError):
            model.encode_views((bad.input_ids, bad.input_ids[:, :-1]))
        assert _view_count() == 1

        class Boom(Exception):
            pass

        original = model.user_representation

        def raising_encode(input_ids):
            assert _view_count() == 3
            original(input_ids)  # consume some dropout draws first
            raise Boom()

        model.user_representation = raising_encode
        with pytest.raises(Boom):
            model.encode_views((bad.input_ids, bad.input_ids, bad.input_ids))
        assert _view_count() == 1


# ----------------------------------------------------------------------
# One augmented view for CL4SRec and CoSeRec
# ----------------------------------------------------------------------


class TestAugmentBatch:
    @pytest.mark.parametrize("name", ["CL4SRec", "CoSeRec"])
    def test_rows_are_augment_row_in_order(self, name):
        model, twin = build(name), build(name)
        ids = random_batch(seed=4).input_ids
        view = augment_batch(model, ids)
        assert view.shape == ids.shape
        for row, got in zip(ids, view):
            assert np.array_equal(got, twin._augment_row(row))
        assert not np.array_equal(view, ids)

    def test_capture_replays_fresh_views_in_place(self):
        model, twin = build("CL4SRec"), build("CL4SRec")
        ids = random_batch(seed=5).input_ids
        with capture() as tape:
            view = augment_batch(model, ids)
        (entry,) = tape._entries
        _, refresh, name = entry
        assert name == "augment"
        first = augment_batch(twin, ids)
        assert np.array_equal(view, first)
        refresh()  # the next step's draws, written into the same array
        assert np.array_equal(view, augment_batch(twin, ids))
        assert not np.array_equal(view, first)


# ----------------------------------------------------------------------
# Prediction-head config
# ----------------------------------------------------------------------


def test_config_rejects_chunk_width():
    """The full-softmax head sizes its own blocks: no width field."""
    with pytest.raises(TypeError, match="ce_chunk_size"):
        SlimeConfig(num_items=10, ce_chunk_size=16)
