"""Tests for the training loop, early stopping, and checkpoint restore."""

import numpy as np
import pytest

from repro.core import Slime4Rec, SlimeConfig
from repro.data.dataset import SequenceDataset
from repro.data.synthetic import SyntheticConfig, generate_interactions
from repro.train import TrainConfig, Trainer
from repro.utils.io import CheckpointStore


@pytest.fixture(scope="module")
def dataset():
    cfg = SyntheticConfig(num_users=60, num_items=40, seed=8)
    return SequenceDataset(generate_interactions(cfg), max_len=10)


def make_model(dataset, **overrides):
    defaults = dict(
        num_items=dataset.num_items, max_len=dataset.max_len,
        hidden_dim=16, num_layers=2, cl_weight=0.1, seed=0,
    )
    defaults.update(overrides)
    return Slime4Rec(SlimeConfig(**defaults))


class TestTrainer:
    def test_loss_decreases_over_epochs(self, dataset):
        model = make_model(dataset)
        trainer = Trainer(model, dataset, TrainConfig(epochs=5, batch_size=64, patience=0))
        history = trainer.fit()
        assert history.losses[-1] < history.losses[0]

    def test_history_records_validation(self, dataset):
        model = make_model(dataset)
        trainer = Trainer(model, dataset, TrainConfig(epochs=3, batch_size=64, patience=0))
        history = trainer.fit()
        assert len(history.valid_metrics) == 3
        assert "NDCG@10" in history.valid_metrics[0]

    def test_best_checkpoint_restored(self, dataset):
        model = make_model(dataset)
        trainer = Trainer(model, dataset, TrainConfig(epochs=4, batch_size=64, patience=0))
        history = trainer.fit()
        # After fit the model must reproduce the best validation metric.
        result = trainer.evaluator.evaluate(model, split="valid")
        assert np.isclose(result[trainer.config.monitor], history.best_value, atol=1e-12)

    def test_early_stopping_halts(self, dataset):
        model = make_model(dataset)
        config = TrainConfig(epochs=50, batch_size=64, patience=1, lr=0.0)
        trainer = Trainer(model, dataset, config)
        history = trainer.fit()
        # lr=0 -> no improvement after epoch 1 -> stops at patience.
        assert len(history.losses) <= 3

    def test_padding_embedding_stays_zero(self, dataset):
        model = make_model(dataset)
        trainer = Trainer(model, dataset, TrainConfig(epochs=2, batch_size=64, patience=0))
        trainer.fit()
        assert np.allclose(model.item_embedding.weight.data[0], 0.0)

    def test_same_target_sampling_inferred_from_cl_weight(self, dataset):
        cl_model = make_model(dataset, cl_weight=0.5)
        assert Trainer(cl_model, dataset).iterator.with_same_target
        plain = make_model(dataset, cl_weight=0.0)
        assert not Trainer(plain, dataset).iterator.with_same_target

    def test_test_split_evaluation(self, dataset):
        model = make_model(dataset)
        trainer = Trainer(model, dataset, TrainConfig(epochs=1, batch_size=64, patience=0))
        trainer.fit()
        result = trainer.test()
        assert set(result.metrics) == {"HR@5", "HR@10", "NDCG@5", "NDCG@10"}

    def test_deterministic_given_seed(self, dataset):
        results = []
        for _ in range(2):
            model = make_model(dataset, seed=7)
            trainer = Trainer(model, dataset, TrainConfig(epochs=2, batch_size=64, patience=0, seed=3))
            trainer.fit()
            results.append(trainer.test().metrics)
        assert results[0] == results[1]

    def test_history_summary_format(self, dataset):
        model = make_model(dataset)
        trainer = Trainer(model, dataset, TrainConfig(epochs=1, batch_size=64, patience=0))
        history = trainer.fit()
        assert "best_epoch" in history.summary()

    def test_lr_stays_constant_through_fit(self, dataset, tmp_path):
        """Adam runs at the configured lr for the whole run, and every
        archived run state records that lr and no schedule."""
        model = make_model(dataset)
        config = TrainConfig(
            epochs=2, batch_size=64, patience=0, lr=3e-3, checkpoint_dir=str(tmp_path)
        )
        trainer = Trainer(model, dataset, config)
        trainer.fit()
        assert trainer.optimizer.lr == 3e-3
        assert trainer.optimizer.state_dict()["step"] > 0
        metadata = CheckpointStore(tmp_path).load_latest()["metadata"]
        assert metadata["optim"]["lr"] == 3e-3
        assert "scheduler" not in metadata
