"""End-to-end integration tests crossing all subsystem boundaries."""

import numpy as np
import pytest

from repro import (
    SlimeConfig,
    Slime4Rec,
    TrainConfig,
    Trainer,
    build_baseline,
    load_preset,
)
from repro.evaluation import Evaluator


@pytest.fixture(scope="module")
def dataset():
    return load_preset("beauty", scale=0.15, max_len=16)


class _RandomModel:
    """Uniform random scorer — the floor any trained model must beat."""

    def __init__(self, vocab):
        self._vocab = vocab
        self._rng = np.random.default_rng(0)

    def eval(self):
        return self

    def score_context(self):
        return None

    def predict_scores(self, input_ids, context=None):
        return self._rng.random((input_ids.shape[0], self._vocab))


class TestEndToEnd:
    def test_slime4rec_beats_random_scorer(self, dataset):
        model = Slime4Rec(
            SlimeConfig(num_items=dataset.num_items, max_len=16, hidden_dim=32, seed=0)
        )
        trainer = Trainer(model, dataset, TrainConfig(epochs=4, batch_size=128, patience=0))
        trainer.fit()
        trained = trainer.test()
        random_result = Evaluator(dataset).evaluate(_RandomModel(dataset.vocab_size))
        # The tiny catalog (~50 items) gives random a high floor at K=10;
        # NDCG@5 separates trained from random much more sharply.
        assert trained["NDCG@5"] > 1.5 * random_result["NDCG@5"]
        assert trained["HR@10"] > random_result["HR@10"]

    def test_frequency_model_competitive_with_attention_on_periodic_data(self, dataset):
        """On frequency-structured data, SLIME4Rec should at least match
        SASRec under an identical small budget (the paper's core claim,
        shape level)."""
        config = TrainConfig(epochs=4, batch_size=128, patience=0)
        slime = Slime4Rec(
            SlimeConfig(num_items=dataset.num_items, max_len=16, hidden_dim=32, seed=0)
        )
        slime_tr = Trainer(slime, dataset, config)
        slime_tr.fit()
        sas = build_baseline("SASRec", dataset, hidden_dim=32, seed=0)
        sas_tr = Trainer(sas, dataset, config)
        sas_tr.fit()
        ours = slime_tr.test()["NDCG@10"]
        theirs = sas_tr.test()["NDCG@10"]
        assert ours >= theirs * 0.75, (ours, theirs)

    def test_checkpoint_transfer_between_instances(self, dataset):
        cfg = SlimeConfig(num_items=dataset.num_items, max_len=16, hidden_dim=32, seed=0)
        source = Slime4Rec(cfg)
        trainer = Trainer(source, dataset, TrainConfig(epochs=2, batch_size=128, patience=0))
        trainer.fit()
        clone = Slime4Rec(cfg)
        clone.load_state_dict(source.state_dict())
        inputs, _ = dataset.eval_arrays("test")
        source.eval(), clone.eval()
        assert np.allclose(
            source.predict_scores(inputs[:8]), clone.predict_scores(inputs[:8])
        )

    def test_fmlp_is_special_case_of_slime(self, dataset):
        """alpha=1 + DFS-only + no CL: the masks reduce to FMLP-Rec's
        global filter, so both models see identical frequency coverage."""
        slime = Slime4Rec(
            SlimeConfig(
                num_items=dataset.num_items, max_len=16, hidden_dim=32,
                alpha=1.0, use_sfs=False, cl_weight=0.0, seed=0,
            )
        )
        fmlp = build_baseline("FMLP-Rec", dataset, hidden_dim=32, seed=0)
        for s_layer, f_layer in zip(slime.layers, fmlp.layers):
            assert np.array_equal(s_layer.dfs_mask, f_layer.dfs_mask)
            assert s_layer.sfs_mask is None and f_layer.sfs_mask is None

    def test_float32_training_stable(self, dataset):
        """A float32 model trains in float32 without NaNs."""
        model = Slime4Rec(
            SlimeConfig(
                num_items=dataset.num_items, max_len=16, hidden_dim=32, seed=0, dtype="float32"
            )
        )
        trainer = Trainer(model, dataset, TrainConfig(epochs=2, batch_size=128, patience=0))
        history = trainer.fit()
        assert np.all(np.isfinite(history.losses))
        assert all(p.dtype == np.float32 for p in model.parameters())
        batch = next(iter(trainer.iterator.epoch()))
        assert model.loss(batch).dtype == np.float32

    def test_all_slide_modes_trainable(self, dataset):
        for mode in (1, 2, 3, 4):
            model = Slime4Rec(
                SlimeConfig(
                    num_items=dataset.num_items, max_len=16, hidden_dim=16,
                    slide_mode=mode, seed=0,
                )
            )
            trainer = Trainer(model, dataset, TrainConfig(epochs=1, batch_size=128, patience=0))
            history = trainer.fit()
            assert np.isfinite(history.losses[0])
