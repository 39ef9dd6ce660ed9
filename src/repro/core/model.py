"""SLIME4Rec: contrastive enhanced slide filter mixer (Section III)."""

from __future__ import annotations

import numpy as np

from repro.autograd import functional as F
from repro.autograd.spectral import num_frequency_bins
from repro.autograd.tensor import Tensor
from repro.core.config import SlimeConfig
from repro.core.contrastive import same_target_contrastive_loss
from repro.core.encoder import SequentialEncoderBase
from repro.core.filter_mixer import FilterMixerLayer, run_mixer_layers
from repro.core.filters import ramp_masks
from repro.data.batching import Batch
from repro.nn import ModuleList

__all__ = ["Slime4Rec"]


class Slime4Rec(SequentialEncoderBase):
    """The paper's model: embedding -> L filter mixer blocks -> prediction.

    Training couples the next-item cross-entropy with a contrastive
    regularizer built from an unsupervised dropout view and a
    supervised same-target view (Eq. 36):
    ``loss = L_rec + lambda * (NCE(h', h'_s))`` where both symmetric
    terms of Eq. 33 are folded into the NT-Xent objective.

    Example
    -------
    >>> cfg = SlimeConfig(num_items=100, max_len=16, hidden_dim=32)
    >>> model = Slime4Rec(cfg)
    >>> scores = model.predict_scores(np.zeros((2, 16), dtype=np.int64))
    >>> scores.shape
    (2, 101)
    """

    def __init__(self, config: SlimeConfig) -> None:
        super().__init__(
            num_items=config.num_items,
            max_len=config.max_len,
            hidden_dim=config.hidden_dim,
            embed_dropout=config.embed_dropout,
            noise_eps=config.noise_eps,
            seed=config.seed,
            dtype=config.dtype,
        )
        self.config = config
        self.configure_head(config.train_num_negatives, config.negative_sampling)
        self.static_graph = config.static_graph
        rng = np.random.default_rng(config.seed + 2)
        m = num_frequency_bins(config.max_len)
        dfs_masks, sfs_masks = ramp_masks(
            m,
            config.num_layers,
            config.alpha,
            config.slide_mode.dfs_direction,
            config.slide_mode.sfs_direction,
        )
        layers = []
        for layer_idx in range(config.num_layers):
            layers.append(
                FilterMixerLayer(
                    seq_len=config.max_len,
                    hidden_dim=config.hidden_dim,
                    dfs_mask=dfs_masks[layer_idx] if config.use_dfs else None,
                    sfs_mask=sfs_masks[layer_idx] if config.use_sfs else None,
                    gamma=config.gamma if (config.use_dfs and config.use_sfs) else 0.0,
                    dropout=config.hidden_dropout,
                    rng=rng,
                    dtype=self.dtype,
                )
            )
        self.layers = ModuleList(layers)

    # ------------------------------------------------------------------
    def to(self, dtype) -> "Slime4Rec":
        """Cast the model and keep ``config.dtype`` describing it.

        The config is replaced, not mutated: the caller's original
        ``SlimeConfig`` may be shared with other model builds.
        """
        import dataclasses

        super().to(dtype)
        self.config = dataclasses.replace(self.config, dtype=self.dtype.name)
        return self

    # ------------------------------------------------------------------
    def encode_states(self, input_ids: np.ndarray) -> Tensor:
        return run_mixer_layers(self.layers, self.embed(input_ids), self.inject_noise)

    def user_representation(self, input_ids: np.ndarray) -> Tensor:
        """``h_t^L`` (Eq. 31) without the rest of the last block's output.

        Blocks ``0..L-2`` run on every position; the last block computes
        position ``N-1`` only: its filter as one weighted sum over
        positions and its position-wise tail on that row
        (:meth:`FilterMixerLayer.forward_last`).  Same masks and
        generator streams as ``encode_states(x)[:, -1]``, same value to
        float reassociation.
        """
        hidden = run_mixer_layers(
            self.layers, self.embed(input_ids), self.inject_noise, last_only=True
        )
        return F.getitem(hidden, (slice(None), -1))

    # ------------------------------------------------------------------
    def loss(self, batch: Batch) -> Tensor:
        """Joint objective of Eq. 36 (:func:`same_target_contrastive_loss`)."""
        return same_target_contrastive_loss(
            self, batch, self.config.cl_weight, self.config.cl_temperature
        )

    # ------------------------------------------------------------------
    def filter_amplitudes(self) -> dict:
        """Per-layer |filter| maps for the Figure 7 visualization.

        Returns ``{"dfs": [(M, d) arrays], "sfs": [...]}`` with the
        window masks applied, i.e. exactly the effective filters.
        """
        out = {"dfs": [], "sfs": []}
        for layer in self.layers:
            if layer.dfs_mask is not None:
                amp = np.abs(layer.dfs_real.data + 1j * layer.dfs_imag.data)
                out["dfs"].append(amp * layer.dfs_mask[:, None])
            if layer.sfs_mask is not None:
                amp = np.abs(layer.sfs_real.data + 1j * layer.sfs_imag.data)
                out["sfs"].append(amp * layer.sfs_mask[:, None])
        return out
