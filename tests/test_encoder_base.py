"""Tests for the shared SequentialEncoderBase plumbing."""

import numpy as np
import pytest

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.core.encoder import PointwiseFeedForward, SequentialEncoderBase


class _IdentityEncoder(SequentialEncoderBase):
    """Minimal concrete encoder: hidden states = embeddings."""

    def encode_states(self, input_ids):
        return self.embed(input_ids)


@pytest.fixture
def encoder():
    return _IdentityEncoder(num_items=20, max_len=8, hidden_dim=16, embed_dropout=0.0, seed=0)


class TestEmbeddingLayer:
    def test_embed_shape(self, encoder):
        out = encoder.embed(np.zeros((3, 8), dtype=np.int64))
        assert out.shape == (3, 8, 16)

    def test_wrong_length_rejected(self, encoder):
        with pytest.raises(ValueError, match="length"):
            encoder.embed(np.zeros((3, 9), dtype=np.int64))

    def test_positions_break_translation_symmetry(self, encoder):
        """Same item at different positions gets different embeddings."""
        encoder.eval()
        ids = np.zeros((1, 8), dtype=np.int64)
        ids[0, 3] = 5
        a = encoder.embed(ids).data[0, 3]
        ids2 = np.zeros((1, 8), dtype=np.int64)
        ids2[0, 6] = 5
        b = encoder.embed(ids2).data[0, 6]
        assert not np.allclose(a, b)


class TestPredictionLayer:
    def test_scores_use_item_embedding_table(self, encoder):
        encoder.eval()
        ids = np.zeros((2, 8), dtype=np.int64)
        ids[:, -1] = [1, 2]
        scores = encoder.predict_scores(ids)
        user = encoder.user_representation(ids).data
        manual = user @ encoder.item_embedding.weight.data.T
        assert np.allclose(scores, manual, atol=1e-8)

    def test_predict_scores_has_no_graph(self, encoder):
        scores = encoder.predict_scores(np.zeros((1, 8), dtype=np.int64))
        assert isinstance(scores, np.ndarray)

    def test_recommendation_loss_decreases_with_correct_logits(self, encoder):
        ids = np.zeros((4, 8), dtype=np.int64)
        targets = np.array([1, 2, 3, 4])
        loss = encoder.recommendation_loss(ids, targets)
        assert float(loss.data) > 0

    def test_score_table_excludes_extra_tokens(self):
        enc = _IdentityEncoder(
            num_items=20, max_len=8, hidden_dim=16, extra_tokens=1, seed=0
        )
        table = enc._score_table()
        assert table.shape == (21, 16)  # padding + items, no extra token


class TestNoiseInjection:
    def test_zero_eps_is_identity(self, encoder):
        x = Tensor(np.ones((2, 8, 16)))
        assert encoder.inject_noise(x) is x

    def test_positive_eps_perturbs(self):
        enc = _IdentityEncoder(num_items=20, max_len=8, hidden_dim=16, noise_eps=0.5, seed=0)
        x = Tensor(np.random.default_rng(0).normal(size=(2, 8, 16)))
        out = enc.inject_noise(x)
        assert not np.allclose(out.data, x.data)

    def test_constant_representation_receives_no_noise(self):
        """Noise is scaled by std(x); a constant signal stays constant."""
        enc = _IdentityEncoder(num_items=20, max_len=8, hidden_dim=16, noise_eps=0.5, seed=0)
        x = Tensor(np.ones((2, 8, 16)))
        assert np.allclose(enc.inject_noise(x).data, x.data)

    def test_noise_scales_with_representation_std(self):
        enc = _IdentityEncoder(num_items=20, max_len=8, hidden_dim=16, noise_eps=0.1, seed=0)
        rng = np.random.default_rng(0)
        small = Tensor(rng.normal(0, 1e-3, (2, 8, 16)))
        big = Tensor(rng.normal(0, 10.0, (2, 8, 16)))
        small_delta = np.abs(enc.inject_noise(small).data - small.data).max()
        big_delta = np.abs(enc.inject_noise(big).data - big.data).max()
        assert big_delta > 100 * small_delta


class TestPointwiseFeedForward:
    def test_shape_preserved(self, rng):
        ffn = PointwiseFeedForward(16, rng=rng)
        out = ffn(Tensor(rng.normal(size=(2, 5, 16))))
        assert out.shape == (2, 5, 16)

    def test_inner_dim_expansion(self, rng):
        ffn = PointwiseFeedForward(8, inner_dim=32, rng=rng)
        assert ffn.fc1.out_features == 32
        assert ffn.fc2.in_features == 32

    def test_nonlinearity_present(self, rng):
        """FFN must not be linear: f(2x) != 2 f(x) in general."""
        ffn = PointwiseFeedForward(8, rng=np.random.default_rng(0))
        x = Tensor(rng.normal(size=(1, 3, 8)))
        fx = ffn(x).data
        f2x = ffn(Tensor(2 * x.data)).data
        assert not np.allclose(f2x, 2 * fx, atol=1e-6)
