"""Failure-injection and adversarial-input tests.

Production code meets malformed inputs; these tests pin down how the
library fails (loudly and precisely) and what it tolerates (extreme but
legal values) rather than assuming the happy path.
"""

import numpy as np
import pytest

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.core import Slime4Rec, SlimeConfig
from repro.data.batching import Batch
from repro.data.dataset import SequenceDataset
from repro.data.synthetic import SyntheticConfig, generate_interactions
from repro.optim import Adam
from repro.train import TrainConfig, Trainer


@pytest.fixture(scope="module")
def dataset():
    cfg = SyntheticConfig(num_users=40, num_items=30, seed=11)
    return SequenceDataset(generate_interactions(cfg), max_len=8)


class TestExtremeValues:
    def test_softmax_survives_huge_logits(self):
        out = F.softmax(Tensor(np.array([[1e30, -1e30, 0.0]])))
        assert np.all(np.isfinite(out.data))
        assert np.isclose(out.data.sum(), 1.0)

    def test_cross_entropy_survives_huge_logits(self):
        loss = F.cross_entropy(Tensor(np.array([[1e20, -1e20]])), np.array([0]))
        assert np.isfinite(loss.data)

    def test_sigmoid_extreme_inputs_bounded(self):
        out = F.sigmoid(Tensor(np.array([1e10, -1e10])))
        assert np.all((out.data >= 0) & (out.data <= 1))
        assert np.all(np.isfinite(out.data))

    def test_layer_norm_constant_input_finite(self):
        out = F.layer_norm(
            Tensor(np.full((2, 4), 7.0)), Tensor(np.ones(4)), Tensor(np.zeros(4))
        )
        assert np.all(np.isfinite(out.data))

    def test_l2_normalize_zero_vector_finite(self):
        out = F.l2_normalize(Tensor(np.zeros((1, 4))))
        assert np.all(np.isfinite(out.data))


class TestAdversarialBatches:
    def test_all_padding_batch(self, dataset):
        """A batch of empty histories must not crash or produce NaN."""
        model = Slime4Rec(
            SlimeConfig(num_items=dataset.num_items, max_len=8, hidden_dim=16, seed=0)
        )
        batch = Batch(
            input_ids=np.zeros((4, 8), dtype=np.int64),
            targets=np.ones(4, dtype=np.int64),
        )
        loss = model.loss(batch)
        assert np.isfinite(loss.data)
        loss.backward()

    def test_single_row_batch(self, dataset):
        model = Slime4Rec(
            SlimeConfig(num_items=dataset.num_items, max_len=8, hidden_dim=16,
                        cl_weight=0.5, seed=0)
        )
        batch = Batch(
            input_ids=np.ones((1, 8), dtype=np.int64),
            targets=np.array([2]),
            positive_ids=np.ones((1, 8), dtype=np.int64),
        )
        # Contrastive term degrades to zero for B=1 instead of NaN.
        loss = model.loss(batch)
        assert np.isfinite(loss.data)

    def test_out_of_range_item_id_raises(self, dataset):
        model = Slime4Rec(
            SlimeConfig(num_items=dataset.num_items, max_len=8, hidden_dim=16, seed=0)
        )
        bad = np.full((1, 8), dataset.num_items + 50, dtype=np.int64)
        with pytest.raises(IndexError):
            model.predict_scores(bad)


class TestOptimizerRobustness:
    def test_nan_gradient_detected_by_clip(self):
        """clip_grad_norm reports a NaN norm instead of hiding it."""
        from repro.optim import clip_grad_norm

        p = Tensor(np.zeros(2), requires_grad=True)
        p.grad = np.array([np.nan, 1.0])
        assert np.isnan(clip_grad_norm([p], 5.0))

    def test_adam_recovers_after_zero_grad_epochs(self):
        p = Tensor(np.ones(2), requires_grad=True)
        opt = Adam([p], lr=0.1)
        p.grad = np.zeros(2)
        opt.step()
        p.grad = np.ones(2)
        opt.step()
        assert np.all(np.isfinite(p.data))


class TestTrainerEdgeCases:
    def test_batch_size_larger_than_dataset(self, dataset):
        model = Slime4Rec(
            SlimeConfig(num_items=dataset.num_items, max_len=8, hidden_dim=16, seed=0)
        )
        trainer = Trainer(
            model, dataset, TrainConfig(epochs=1, batch_size=100_000, patience=0)
        )
        history = trainer.fit()
        assert len(history.losses) == 1

    def test_rejects_scheduler_factory(self, dataset):
        """Adam runs at a constant lr: there is no schedule to attach."""
        model = Slime4Rec(
            SlimeConfig(num_items=dataset.num_items, max_len=8, hidden_dim=16, seed=0)
        )
        with pytest.raises(TypeError, match="scheduler_factory"):
            Trainer(
                model,
                dataset,
                TrainConfig(epochs=1, batch_size=64, patience=0),
                scheduler_factory=lambda opt: None,
            )

    def test_zero_epochs_is_a_noop(self, dataset):
        model = Slime4Rec(
            SlimeConfig(num_items=dataset.num_items, max_len=8, hidden_dim=16, seed=0)
        )
        before = {k: v.copy() for k, v in model.state_dict().items()}
        trainer = Trainer(model, dataset, TrainConfig(epochs=0, batch_size=64))
        history = trainer.fit()
        assert history.losses == []
        after = model.state_dict()
        assert all(np.allclose(before[k], after[k]) for k in before)
