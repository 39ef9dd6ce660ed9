"""Batched multi-view contrastive encode: equivalence and semantics.

Covers the PR-4 fast path:

- batched (one stacked ``(3B, N, d)`` walk) vs unbatched (three
  sequential encodes) **loss and training-trajectory equivalence** for
  SLIME4Rec and DuoRec, in both dtypes, with ``cl_weight`` zero and
  positive;
- the **per-view dropout stream** contract
  (:func:`repro.nn.workspace.dropout_views` /
  ``F.dropout(views=...)``): a stacked draw consumes each generator
  exactly like V separate per-view draws, in both mask modes;
- **chunked cross-entropy** (``F.cross_entropy(chunk_size=...)``,
  :func:`repro.autograd.functional.linear_cross_entropy`, and the
  model-level ``ce_chunk_size`` knob) against the dense path.
"""

import numpy as np
import pytest

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.baselines.duorec import DuoRec
from repro.core import Slime4Rec, SlimeConfig
from repro.data.batching import Batch
from repro.nn.workspace import dropout_view_count, dropout_views, fast_dropout_masks
from repro.optim import Adam


def t(a):
    return Tensor(np.asarray(a, dtype=np.float64))


def random_batch(num_items=30, max_len=12, batch=6, seed=0, with_positive=True):
    rng = np.random.default_rng(seed)
    inputs = rng.integers(1, num_items + 1, size=(batch, max_len))
    inputs[:, : max_len // 3] = 0  # left padding
    targets = rng.integers(1, num_items + 1, size=batch)
    positives = None
    if with_positive:
        positives = rng.integers(1, num_items + 1, size=(batch, max_len))
    return Batch(input_ids=inputs, targets=targets, positive_ids=positives)


def build_slime(batched, dtype="float64", cl_weight=0.1, **overrides):
    cfg = SlimeConfig(
        num_items=30, max_len=12, hidden_dim=16, num_layers=2,
        cl_weight=cl_weight, batched_views=batched, seed=0, dtype=dtype,
        **overrides,
    )
    return Slime4Rec(cfg)


def build_duorec(batched, dtype="float64", cl_weight=0.1):
    return DuoRec(
        num_items=30, max_len=12, hidden_dim=16, num_layers=1, num_heads=2,
        cl_weight=cl_weight, batched_views=batched, seed=0, dtype=dtype,
    )


def train_losses(model, steps=3, seed=0, with_positive=True):
    """Optimizer-coupled loss trajectory: any divergence compounds."""
    model.train()
    optimizer = Adam(model.parameters())
    losses = []
    for step in range(steps):
        batch = random_batch(seed=seed + step, with_positive=with_positive)
        optimizer.zero_grad()
        loss = model.loss(batch)
        loss.backward()
        optimizer.step()
        losses.append(float(loss.data))
    return np.array(losses)


# ----------------------------------------------------------------------
# Batched vs unbatched loss equivalence
# ----------------------------------------------------------------------


class TestBatchedViewEquivalence:
    @pytest.mark.parametrize("cl_weight", [0.0, 0.2])
    def test_slime4rec_float64_trajectory_matches(self, cl_weight):
        a = train_losses(build_slime(True, cl_weight=cl_weight))
        b = train_losses(build_slime(False, cl_weight=cl_weight))
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("cl_weight", [0.0, 0.2])
    def test_duorec_float64_trajectory_matches(self, cl_weight):
        a = train_losses(build_duorec(True, cl_weight=cl_weight))
        b = train_losses(build_duorec(False, cl_weight=cl_weight))
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("builder", [build_slime, build_duorec])
    def test_float32_trajectory_matches_loosely(self, builder):
        a = train_losses(builder(True, dtype="float32"))
        b = train_losses(builder(False, dtype="float32"))
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-4)

    def test_missing_positive_falls_back_to_rec_loss(self):
        # Two identically-seeded models so both calls consume identical
        # dropout streams: loss(batch) without positives must be exactly
        # the plain recommendation loss.
        model = build_slime(True)
        twin = build_slime(True)
        batch = random_batch(with_positive=False)
        model.train()
        twin.train()
        loss = model.loss(batch)
        rec = twin.recommendation_loss(batch.input_ids, batch.targets)
        assert float(loss.data) == pytest.approx(float(rec.data), abs=1e-12)

    def test_noise_protocol_uses_reference_path(self):
        """noise_eps > 0 couples views through the batch std -> unbatched."""
        model = build_slime(True, noise_eps=0.1)
        ref = build_slime(False, noise_eps=0.1)
        a = train_losses(model)
        b = train_losses(ref)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)

    def test_gradients_match_unbatched(self):
        batch = random_batch()
        grads = {}
        for batched in (True, False):
            model = build_slime(batched)
            model.train()
            loss = model.loss(batch)
            loss.backward()
            grads[batched] = {
                name: p.grad.copy() for name, p in model.named_parameters()
            }
        assert grads[True].keys() == grads[False].keys()
        for name in grads[True]:
            np.testing.assert_allclose(
                grads[True][name], grads[False][name], rtol=0, atol=1e-9,
                err_msg=name,
            )

    def test_encode_views_rejects_shape_mismatch(self):
        model = build_slime(True)
        with pytest.raises(ValueError):
            model.encode_views(
                (np.zeros((4, 12), dtype=np.int64), np.zeros((3, 12), dtype=np.int64))
            )

    def test_encode_views_needs_two_views(self):
        model = build_slime(True)
        with pytest.raises(ValueError):
            model.encode_views((np.zeros((4, 12), dtype=np.int64),))


# ----------------------------------------------------------------------
# Per-view dropout stream semantics
# ----------------------------------------------------------------------


class TestDropoutViewStreams:
    def test_stacked_draw_equals_per_view_draws_seed_path(self):
        x = np.ones((6, 4, 3))
        stacked = F.dropout(
            Tensor(x), 0.4, training=True, rng=np.random.default_rng(7), views=3
        )
        rng = np.random.default_rng(7)
        parts = [
            F.dropout(Tensor(x[i * 2 : (i + 1) * 2]), 0.4, training=True, rng=rng)
            for i in range(3)
        ]
        np.testing.assert_array_equal(
            stacked.data, np.concatenate([p.data for p in parts], axis=0)
        )

    def test_stacked_draw_equals_per_view_draws_fast_path(self):
        x = np.ones((6, 5))
        with fast_dropout_masks():
            stacked = F.dropout(
                Tensor(x), 0.3, training=True, rng=np.random.default_rng(3), views=3
            )
            rng = np.random.default_rng(3)
            parts = [
                F.dropout(Tensor(x[i * 2 : (i + 1) * 2]), 0.3, training=True, rng=rng)
                for i in range(3)
            ]
        np.testing.assert_array_equal(
            stacked.data, np.concatenate([p.data for p in parts], axis=0)
        )

    def test_context_manager_scopes_view_count(self):
        assert dropout_view_count() == 1
        with dropout_views(3):
            assert dropout_view_count() == 3
            with dropout_views(2):
                assert dropout_view_count() == 2
            assert dropout_view_count() == 3
        assert dropout_view_count() == 1

    def test_context_drives_dropout_like_explicit_views(self):
        x = np.ones((6, 4))
        with dropout_views(2):
            via_context = F.dropout(
                Tensor(x), 0.5, training=True, rng=np.random.default_rng(11)
            )
        explicit = F.dropout(
            Tensor(x), 0.5, training=True, rng=np.random.default_rng(11), views=2
        )
        np.testing.assert_array_equal(via_context.data, explicit.data)

    def test_indivisible_leading_axis_raises(self):
        with pytest.raises(ValueError):
            F.dropout(
                Tensor(np.ones((5, 4))), 0.5, training=True,
                rng=np.random.default_rng(0), views=3,
            )

    def test_bad_view_count_raises(self):
        from repro.nn.workspace import set_dropout_view_count

        with pytest.raises(ValueError):
            set_dropout_view_count(0)

    def test_eval_mode_ignores_views(self):
        a = Tensor(np.ones((5, 4)))
        out = F.dropout(a, 0.5, training=False, rng=np.random.default_rng(0), views=3)
        assert out is a

    def test_view_count_restored_after_raising_forward(self):
        """An exception inside a batched encode must not leak view state."""
        model = build_slime(batched=True)
        model.train()
        bad = random_batch()
        # Sabotage the stacked pass *inside* the dropout_views context:
        # positive_ids with a wrong length makes encode_views raise
        # before, and a raising encode makes user_representation raise
        # after, the count is set.
        assert dropout_view_count() == 1
        with pytest.raises(ValueError):
            model.encode_views((bad.input_ids, bad.input_ids[:, :-1]))
        assert dropout_view_count() == 1

        class Boom(Exception):
            pass

        original = model.user_representation

        def raising_encode(input_ids):
            original(input_ids)  # consume some dropout draws first
            raise Boom()

        model.user_representation = raising_encode
        with pytest.raises(Boom):
            model.encode_views((bad.input_ids, bad.input_ids, bad.input_ids))
        assert dropout_view_count() == 1

    def test_view_count_restored_when_nested_context_body_raises(self):
        with pytest.raises(RuntimeError):
            with dropout_views(3):
                with dropout_views(2):
                    raise RuntimeError("mid-forward failure")
        assert dropout_view_count() == 1

    def test_invalid_count_leaves_state_untouched(self):
        with dropout_views(2):
            with pytest.raises(ValueError):
                with dropout_views(0):
                    pass  # pragma: no cover - never entered
            assert dropout_view_count() == 2
        assert dropout_view_count() == 1


# ----------------------------------------------------------------------
# Chunked cross-entropy
# ----------------------------------------------------------------------


class TestChunkedCrossEntropy:
    @pytest.mark.parametrize("chunk", [1, 5, 32, 1000])
    def test_chunked_matches_dense(self, rng, chunk):
        logits = rng.normal(size=(9, 41))
        targets = rng.integers(0, 41, size=9)
        a = Tensor(logits.copy(), requires_grad=True)
        b = Tensor(logits.copy(), requires_grad=True)
        dense = F.cross_entropy(a, targets)
        chunked = F.cross_entropy(b, targets, chunk_size=chunk)
        dense.backward()
        chunked.backward()
        np.testing.assert_allclose(float(dense.data), float(chunked.data), atol=1e-12)
        np.testing.assert_allclose(a.grad, b.grad, atol=1e-12)

    def test_chunked_respects_ignore_index(self, rng):
        logits = rng.normal(size=(8, 17))
        targets = rng.integers(0, 17, size=8)
        targets[::2] = -1
        a = Tensor(logits.copy(), requires_grad=True)
        b = Tensor(logits.copy(), requires_grad=True)
        dense = F.cross_entropy(a, targets, ignore_index=-1)
        chunked = F.cross_entropy(b, targets, ignore_index=-1, chunk_size=4)
        dense.backward()
        chunked.backward()
        np.testing.assert_allclose(float(dense.data), float(chunked.data), atol=1e-12)
        np.testing.assert_allclose(a.grad, b.grad, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_linear_ce_matches_dense_composition(self, rng, dtype):
        atol = 1e-11 if dtype is np.float64 else 1e-4
        user = rng.normal(size=(7, 8)).astype(dtype)
        weight = rng.normal(size=(31, 8)).astype(dtype)
        targets = rng.integers(0, 31, size=7)
        ua, wa = Tensor(user.copy(), requires_grad=True), Tensor(weight.copy(), requires_grad=True)
        ub, wb = Tensor(user.copy(), requires_grad=True), Tensor(weight.copy(), requires_grad=True)
        dense = F.linear_cross_entropy(ua, wa, targets)  # falls back to dense
        chunked = F.linear_cross_entropy(ub, wb, targets, chunk_size=7)
        dense.backward()
        chunked.backward()
        assert chunked.data.dtype == np.dtype(dtype)
        np.testing.assert_allclose(float(dense.data), float(chunked.data), atol=atol)
        np.testing.assert_allclose(ua.grad, ub.grad, atol=atol)
        np.testing.assert_allclose(wa.grad, wb.grad, atol=atol)

    def test_linear_ce_gradcheck(self, rng):
        from repro.autograd.gradcheck import gradcheck

        user = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        weight = Tensor(rng.normal(size=(13, 6)), requires_grad=True)
        targets = rng.integers(0, 13, size=4)
        gradcheck(
            lambda u, w: F.linear_cross_entropy(u, w, targets, chunk_size=5),
            [user, weight],
        )

    def test_linear_ce_rejects_bad_chunk(self, rng):
        user = Tensor(rng.normal(size=(3, 4)))
        weight = Tensor(rng.normal(size=(9, 4)))
        with pytest.raises(ValueError):
            F.linear_cross_entropy(user, weight, np.zeros(3, dtype=np.int64), chunk_size=0)

    def test_linear_ce_rejects_out_of_range_targets(self, rng):
        """Chunked gather must fail loudly like the dense fancy-index would."""
        user = Tensor(rng.normal(size=(3, 4)))
        weight = Tensor(rng.normal(size=(9, 4)))
        bad = np.array([1, 9, 2])  # 9 >= V
        with pytest.raises(IndexError):
            F.linear_cross_entropy(user, weight, bad, chunk_size=4)
        with pytest.raises(IndexError):
            F.linear_cross_entropy(user, weight, np.array([1, -3, 2]), chunk_size=4)

    @pytest.mark.parametrize("batched", [True, False])
    def test_model_ce_chunk_size_matches_dense(self, batched):
        batch = random_batch()
        dense_model = build_slime(batched)
        chunked_model = build_slime(batched, ce_chunk_size=7)
        dense_model.train()
        chunked_model.train()
        dense = dense_model.loss(batch)
        chunked = chunked_model.loss(batch)
        dense.backward()
        chunked.backward()
        np.testing.assert_allclose(float(dense.data), float(chunked.data), atol=1e-10)
        dense_grads = dict(dense_model.named_parameters())
        for name, p in chunked_model.named_parameters():
            np.testing.assert_allclose(
                p.grad, dense_grads[name].grad, atol=1e-10, err_msg=name
            )

    def test_config_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError):
            SlimeConfig(num_items=10, ce_chunk_size=0)

    @pytest.mark.parametrize("chunk", [0, -4])
    def test_cross_entropy_rejects_nonpositive_chunk(self, rng, chunk):
        logits = Tensor(rng.normal(size=(5, 11)))
        targets = rng.integers(0, 11, size=5)
        with pytest.raises(ValueError, match="chunk_size"):
            F.cross_entropy(logits, targets, chunk_size=chunk)

    @pytest.mark.parametrize("chunk", [-1, 0])
    def test_linear_ce_rejects_nonpositive_chunk(self, rng, chunk):
        user = Tensor(rng.normal(size=(3, 4)))
        weight = Tensor(rng.normal(size=(9, 4)))
        with pytest.raises(ValueError, match="chunk_size"):
            F.linear_cross_entropy(user, weight, np.zeros(3, dtype=np.int64), chunk_size=chunk)

    def test_oversized_chunk_clamps_to_dense(self, rng):
        """chunk_size > V is one chunk: bitwise the dense path, no range games."""
        logits = rng.normal(size=(6, 13))
        targets = rng.integers(0, 13, size=6)
        a = Tensor(logits.copy(), requires_grad=True)
        b = Tensor(logits.copy(), requires_grad=True)
        dense = F.cross_entropy(a, targets)
        clamped = F.cross_entropy(b, targets, chunk_size=13_000)
        dense.backward()
        clamped.backward()
        assert float(dense.data) == float(clamped.data)
        np.testing.assert_array_equal(a.grad, b.grad)

        user = rng.normal(size=(4, 5))
        table = rng.normal(size=(13, 5))
        ua, wa = Tensor(user.copy(), requires_grad=True), Tensor(table.copy(), requires_grad=True)
        ub, wb = Tensor(user.copy(), requires_grad=True), Tensor(table.copy(), requires_grad=True)
        dense_lin = F.linear_cross_entropy(ua, wa, targets[:4])
        clamped_lin = F.linear_cross_entropy(ub, wb, targets[:4], chunk_size=999)
        dense_lin.backward()
        clamped_lin.backward()
        assert float(dense_lin.data) == float(clamped_lin.data)
        np.testing.assert_array_equal(ua.grad, ub.grad)
        np.testing.assert_array_equal(wa.grad, wb.grad)
