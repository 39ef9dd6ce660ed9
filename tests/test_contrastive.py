"""Tests for the InfoNCE contrastive objective (Eqs. 33-35) and the
same-target joint objective (Eq. 36)."""

import numpy as np
import pytest

from repro.autograd.gradcheck import gradcheck
from repro.autograd.tensor import Tensor
from repro.baselines import DuoRec
from repro.core import Slime4Rec, SlimeConfig
from repro.core.contrastive import info_nce_loss, same_target_contrastive_loss
from repro.data.batching import Batch


def t(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


class TestInfoNce:
    def test_aligned_views_give_lower_loss_than_shuffled(self, rng):
        a = rng.normal(size=(16, 8))
        aligned = info_nce_loss(t(a), t(a + 0.01 * rng.normal(size=a.shape)))
        shuffled = info_nce_loss(t(a), t(np.roll(a, 1, axis=0)))
        assert float(aligned.data) < float(shuffled.data)

    def test_perfect_alignment_loss_near_floor(self, rng):
        a = rng.normal(size=(8, 16))
        loss = info_nce_loss(t(a), t(a.copy()), temperature=0.05)
        # With tiny temperature the positive dominates -> loss ~ 0.
        assert float(loss.data) < 0.1

    def test_single_row_batch_returns_zero(self, rng):
        loss = info_nce_loss(t(rng.normal(size=(1, 4))), t(rng.normal(size=(1, 4))))
        assert float(loss.data) == 0.0

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            info_nce_loss(t(rng.normal(size=(4, 8))), t(rng.normal(size=(3, 8))))

    def test_gradients_flow_to_both_views(self, rng):
        a, b = t(rng.normal(size=(6, 5))), t(rng.normal(size=(6, 5)))
        info_nce_loss(a, b).backward()
        assert a.grad is not None and not np.allclose(a.grad, 0)
        assert b.grad is not None and not np.allclose(b.grad, 0)

    def test_gradcheck(self, rng):
        a, b = t(rng.normal(size=(4, 3))), t(rng.normal(size=(4, 3)))
        gradcheck(lambda x, y: info_nce_loss(x, y, temperature=0.5), [a, b])

    def test_scale_invariance_of_cosine(self, rng):
        """Cosine similarity makes the loss invariant to view scaling."""
        a = rng.normal(size=(8, 6))
        b = rng.normal(size=(8, 6))
        base = info_nce_loss(t(a), t(b))
        scaled = info_nce_loss(t(a * 10.0), t(b * 0.1))
        assert np.isclose(float(base.data), float(scaled.data), atol=1e-8)

    def test_temperature_sharpens(self, rng):
        a = rng.normal(size=(8, 6))
        b = a + 0.1 * rng.normal(size=a.shape)
        sharp = info_nce_loss(t(a), t(b), temperature=0.1)
        smooth = info_nce_loss(t(a), t(b), temperature=5.0)
        assert float(sharp.data) < float(smooth.data)

    def test_loss_positive_for_random_views(self, rng):
        a, b = t(rng.normal(size=(16, 8))), t(rng.normal(size=(16, 8)))
        assert float(info_nce_loss(a, b).data) > 0.0


NUM_ITEMS, MAX_LEN = 25, 8


def same_target_model(name):
    if name == "SLIME4Rec":
        return Slime4Rec(SlimeConfig(
            num_items=NUM_ITEMS, max_len=MAX_LEN, hidden_dim=16, num_layers=1, seed=0,
        ))
    return DuoRec(num_items=NUM_ITEMS, max_len=MAX_LEN, hidden_dim=16, num_layers=1, seed=0)


def same_target_batch(seed=0, size=6):
    rng = np.random.default_rng(seed)
    inputs = rng.integers(1, NUM_ITEMS + 1, size=(size, MAX_LEN))
    inputs[:, :2] = 0  # left padding
    return Batch(
        input_ids=inputs,
        targets=rng.integers(1, NUM_ITEMS + 1, size=size),
        positive_ids=rng.integers(1, NUM_ITEMS + 1, size=(size, MAX_LEN)),
    )


class TestSameTargetContrastiveLoss:
    def test_zero_weight_is_the_recommendation_loss(self):
        model = same_target_model("SLIME4Rec").eval()
        batch = same_target_batch()
        loss = same_target_contrastive_loss(model, batch, 0.0, 1.0)
        rec = model.recommendation_loss(batch.input_ids, batch.targets)
        assert float(loss.data) == float(rec.data)

    @pytest.mark.parametrize("name", ["SLIME4Rec", "DuoRec"])
    def test_weight_scales_the_info_nce_term(self, name):
        """With dropout off every term is deterministic, so the objective
        is ``L_rec + weight · NCE``: affine in the weight, with the
        recommendation loss as its intercept."""
        model = same_target_model(name).eval()
        batch = same_target_batch(seed=1)
        rec = float(model.recommendation_loss(batch.input_ids, batch.targets).data)
        at = {
            w: float(same_target_contrastive_loss(model, batch, w, 0.5).data)
            for w in (0.25, 0.5)
        }
        nce = (at[0.5] - at[0.25]) / 0.25
        assert nce > 0.0
        assert at[0.25] == pytest.approx(rec + 0.25 * nce, abs=1e-10)
