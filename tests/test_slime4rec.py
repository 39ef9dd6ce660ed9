"""Tests for the SLIME4Rec model and the filter mixer layer."""

import numpy as np
import pytest

from repro.autograd.spectral import num_frequency_bins, spectral_filter
from repro.autograd.tensor import Tensor
from repro.core import FilterMixerLayer, SlideMode, Slime4Rec, SlimeConfig
from repro.data.batching import Batch
from repro.data.dataset import SequenceDataset
from repro.data.synthetic import SyntheticConfig, generate_interactions


def small_config(**overrides):
    defaults = dict(
        num_items=30, max_len=12, hidden_dim=16, num_layers=2,
        alpha=0.4, cl_weight=0.1, seed=0,
    )
    defaults.update(overrides)
    return SlimeConfig(**defaults)


def random_batch(cfg, batch=4, seed=0, with_positive=True):
    rng = np.random.default_rng(seed)
    inputs = rng.integers(1, cfg.num_items + 1, size=(batch, cfg.max_len))
    inputs[:, : cfg.max_len // 2] = 0  # left padding
    targets = rng.integers(1, cfg.num_items + 1, size=batch)
    positives = None
    if with_positive:
        positives = rng.integers(1, cfg.num_items + 1, size=(batch, cfg.max_len))
    return Batch(input_ids=inputs, targets=targets, positive_ids=positives)


class TestConfig:
    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            small_config(alpha=1.2)

    def test_rejects_no_branches(self):
        with pytest.raises(ValueError):
            small_config(use_dfs=False, use_sfs=False)

    def test_int_slide_mode_coerced(self):
        cfg = small_config(slide_mode=3)
        assert cfg.slide_mode is SlideMode.MODE_3

    def test_mode4_directions(self):
        assert SlideMode.MODE_4.dfs_direction == "high_to_low"
        assert SlideMode.MODE_4.sfs_direction == "high_to_low"


class TestFilterMixerLayer:
    def test_forward_shape(self, rng):
        m = num_frequency_bins(12)
        layer = FilterMixerLayer(12, 8, np.ones(m), np.ones(m), rng=rng)
        out = layer(Tensor(rng.normal(size=(3, 12, 8))))
        assert out.shape == (3, 12, 8)

    def test_requires_at_least_one_branch(self, rng):
        with pytest.raises(ValueError):
            FilterMixerLayer(12, 8, None, None, rng=rng)

    def test_single_branch_ignores_gamma(self, rng):
        m = num_frequency_bins(12)
        layer = FilterMixerLayer(12, 8, np.ones(m), None, gamma=0.9, rng=rng)
        out = layer(Tensor(rng.normal(size=(2, 12, 8))))
        assert out.shape == (2, 12, 8)

    def test_gamma_zero_equals_dfs_only_mixing(self, rng):
        """With gamma=0 the SFS branch contributes nothing to the mix."""
        m = num_frequency_bins(12)
        mask = np.ones(m)
        layer = FilterMixerLayer(12, 8, mask, mask, gamma=0.0, rng=np.random.default_rng(0))
        layer.eval()
        x = Tensor(rng.normal(size=(2, 12, 8)))
        mixed = layer.mix_spectra(x).data
        dfs_only = spectral_filter(x, [(mask[:, None], layer.dfs_real, layer.dfs_imag)]).data
        assert np.allclose(mixed, dfs_only, atol=1e-10)

    def test_mask_bin_count_validated(self, rng):
        with pytest.raises(ValueError):
            FilterMixerLayer(12, 8, np.ones(3), None, rng=rng)

    def test_mix_follows_replaced_filter_payload(self, rng):
        """Replacing a filter parameter's .data must not serve stale filters."""
        m = num_frequency_bins(12)
        layer = FilterMixerLayer(12, 8, np.ones(m), np.ones(m), rng=np.random.default_rng(0))
        layer.eval()
        x = Tensor(rng.normal(size=(2, 12, 8)))
        before = layer.mix_spectra(x).data.copy()
        layer.dfs_real.data = layer.dfs_real.data + 1.0  # new payload object
        after = layer.mix_spectra(x).data
        assert not np.allclose(before, after)

    def test_mix_follows_in_place_filter_edit(self, rng):
        """In-place .data edits take effect on the next call, no invalidation."""
        m = num_frequency_bins(12)
        dfs_mask, sfs_mask = np.ones(m), (np.arange(m) >= 3).astype(float)
        layer = FilterMixerLayer(12, 8, dfs_mask, sfs_mask, gamma=0.3, rng=np.random.default_rng(0))
        layer.eval()
        x = Tensor(rng.normal(size=(2, 12, 8)))
        layer.mix_spectra(x)
        layer.dfs_real.data += 1.0
        expected = spectral_filter(
            x,
            [
                (0.7 * dfs_mask[:, None], Tensor(layer.dfs_real.data), Tensor(layer.dfs_imag.data)),
                (0.3 * sfs_mask[:, None], Tensor(layer.sfs_real.data), Tensor(layer.sfs_imag.data)),
            ],
        )
        assert np.array_equal(layer.mix_spectra(x).data, expected.data)

    def test_gradients_reach_all_parameters(self, rng):
        m = num_frequency_bins(12)
        layer = FilterMixerLayer(12, 8, np.ones(m), np.ones(m), rng=rng)
        x = Tensor(rng.normal(size=(2, 12, 8)), requires_grad=True)
        layer(x).sum().backward()
        for name, param in layer.named_parameters():
            assert param.grad is not None, name


class TestSlime4Rec:
    def test_predict_shape_includes_padding_column(self):
        cfg = small_config()
        model = Slime4Rec(cfg)
        batch = random_batch(cfg)
        scores = model.predict_scores(batch.input_ids)
        assert scores.shape == (4, cfg.num_items + 1)

    def test_loss_is_finite_scalar(self):
        cfg = small_config()
        model = Slime4Rec(cfg)
        loss = model.loss(random_batch(cfg))
        assert loss.data.shape == ()
        assert np.isfinite(loss.data)

    def test_loss_without_positive_falls_back_to_rec(self):
        cfg = small_config()
        model = Slime4Rec(cfg)
        model.eval()  # deterministic (no dropout)
        batch = random_batch(cfg, with_positive=False)
        loss = model.loss(batch)
        rec = model.recommendation_loss(batch.input_ids, batch.targets)
        assert np.isclose(float(loss.data), float(rec.data))

    def test_cl_weight_zero_matches_rec_loss(self):
        cfg = small_config(cl_weight=0.0)
        model = Slime4Rec(cfg)
        model.eval()
        batch = random_batch(cfg)
        assert np.isclose(
            float(model.loss(batch).data),
            float(model.recommendation_loss(batch.input_ids, batch.targets).data),
        )

    def test_cl_term_increases_loss(self):
        batch_cfg = small_config(cl_weight=0.0)
        cl_cfg = small_config(cl_weight=1.0)
        plain = Slime4Rec(batch_cfg)
        contrastive = Slime4Rec(cl_cfg)
        contrastive.load_state_dict(plain.state_dict())
        plain.eval(), contrastive.eval()
        batch = random_batch(batch_cfg)
        assert float(contrastive.loss(batch).data) > float(plain.loss(batch).data)

    def test_training_reduces_loss(self):
        from repro.optim import Adam

        cfg = small_config(cl_weight=0.0, embed_dropout=0.0, hidden_dropout=0.0)
        model = Slime4Rec(cfg)
        batch = random_batch(cfg, batch=16)
        opt = Adam(model.parameters(), lr=1e-2)
        first = None
        for step in range(30):
            opt.zero_grad()
            loss = model.loss(batch)
            if first is None:
                first = float(loss.data)
            loss.backward()
            opt.step()
        assert float(loss.data) < first * 0.8

    def test_ablation_variants_construct(self):
        for kwargs in (dict(use_dfs=False), dict(use_sfs=False), dict(cl_weight=0.0)):
            model = Slime4Rec(small_config(**kwargs))
            scores = model.predict_scores(random_batch(model.config).input_ids)
            assert np.all(np.isfinite(scores))

    def test_filter_amplitudes_structure(self):
        cfg = small_config(num_layers=3)
        model = Slime4Rec(cfg)
        amps = model.filter_amplitudes()
        m = num_frequency_bins(cfg.max_len)
        assert len(amps["dfs"]) == 3 and len(amps["sfs"]) == 3
        assert amps["dfs"][0].shape == (m, cfg.hidden_dim)

    def test_filter_amplitudes_respect_masks(self):
        cfg = small_config(num_layers=4, alpha=0.2)
        model = Slime4Rec(cfg)
        amps = model.filter_amplitudes()
        for layer, amp in zip(model.layers, amps["dfs"]):
            outside = layer.dfs_mask == 0
            assert np.allclose(amp[outside], 0.0)

    def test_noise_injection_changes_scores(self):
        quiet = Slime4Rec(small_config(noise_eps=0.0))
        noisy = Slime4Rec(small_config(noise_eps=0.5))
        noisy.load_state_dict(quiet.state_dict())
        quiet.eval(), noisy.eval()
        inputs = random_batch(quiet.config).input_ids
        assert not np.allclose(quiet.predict_scores(inputs), noisy.predict_scores(inputs))

    def test_deterministic_construction(self):
        a = Slime4Rec(small_config(seed=42))
        b = Slime4Rec(small_config(seed=42))
        sa, sb = a.state_dict(), b.state_dict()
        assert all(np.allclose(sa[k], sb[k]) for k in sa)

    def test_alpha_one_single_layer_masks_match_fmlp(self):
        """alpha=1 -> every DFS window is the full band (FMLP equivalence)."""
        model = Slime4Rec(small_config(alpha=1.0, num_layers=2))
        for layer in model.layers:
            assert np.all(layer.dfs_mask == 1.0)

    def test_rejects_wrong_sequence_length(self):
        cfg = small_config()
        model = Slime4Rec(cfg)
        with pytest.raises(ValueError):
            model.predict_scores(np.zeros((2, cfg.max_len + 1), dtype=np.int64))
