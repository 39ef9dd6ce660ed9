"""Filter mixer block (Section III-B): DFS + SFS + FFN.

Each block:

1. FFTs the input along the sequence axis (Eq. 12),
2. multiplies the spectrum by a learnable *dynamic* filter restricted
   to the layer's sliding window (Eq. 21) and, in parallel, by a
   learnable *static* filter restricted to the layer's split band
   (Eq. 25),
3. mixes the two spectra ``(1-gamma) * X_D + gamma * X_S`` and inverse
   FFTs back to time (Eqs. 26-27) — by linearity of the inverse FFT the
   implementation mixes the two filtered time signals, which is
   mathematically identical,
4. residual + LayerNorm + dropout (Eq. 28),
5. pointwise FFN with the densely-residual LayerNorm of Eq. 30.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import functional as F
from repro.autograd.spectral import (
    combined_filter,
    num_frequency_bins,
    spectral_filter,
    spectral_filter_mixed,
)
from repro.autograd.tensor import Tensor
from repro.core.encoder import PointwiseFeedForward
from repro.nn import Dropout, LayerNorm, Module, Parameter
from repro.nn import init as nn_init
from repro.nn.workspace import ParamCache

__all__ = ["FilterMixerLayer"]


class FilterMixerLayer(Module):
    """One filter mixer block with fixed DFS/SFS frequency windows.

    Parameters
    ----------
    seq_len, hidden_dim:
        Input geometry ``(N, d)``; filters live on ``M = N//2+1`` bins.
    dfs_mask, sfs_mask:
        Per-layer binary windows from the frequency ramp structure;
        pass ``None`` to disable a branch (ablations w/oD and w/oS).
    gamma:
        Static-branch mixing weight (Eq. 26); ignored when a branch is
        disabled.
    dropout:
        Dropout rate used at both Eq. 28 and Eq. 30 sites.
    filter_init_std:
        Std of the complex filter init (FMLP-Rec uses 0.02).
    dtype:
        Parameter/activation dtype (float32/float64); ``None`` uses the
        :mod:`repro.nn.init` default.  Float32 filters combine into a
        complex64 spectrum filter, so the whole FFT pipeline stays in
        single precision.
    """

    def __init__(
        self,
        seq_len: int,
        hidden_dim: int,
        dfs_mask: np.ndarray | None,
        sfs_mask: np.ndarray | None,
        gamma: float = 0.5,
        dropout: float = 0.3,
        filter_init_std: float = 0.02,
        rng: np.random.Generator | None = None,
        dtype=None,
    ) -> None:
        super().__init__()
        if dfs_mask is None and sfs_mask is None:
            raise ValueError("at least one of dfs_mask/sfs_mask is required")
        rng = rng or np.random.default_rng()
        dtype = nn_init.resolve_dtype(dtype)
        m = num_frequency_bins(seq_len)
        self.seq_len = seq_len
        self.gamma = gamma
        self.dtype = dtype

        self.dfs_mask = None
        if dfs_mask is not None:
            self.dfs_mask = self._check_mask(dfs_mask, m)
            self.dfs_real = Parameter(
                nn_init.normal(rng, (m, hidden_dim), std=filter_init_std, dtype=dtype), name="dfs_real"
            )
            self.dfs_imag = Parameter(
                nn_init.normal(rng, (m, hidden_dim), std=filter_init_std, dtype=dtype), name="dfs_imag"
            )

        self.sfs_mask = None
        if sfs_mask is not None:
            self.sfs_mask = self._check_mask(sfs_mask, m)
            self.sfs_real = Parameter(
                nn_init.normal(rng, (m, hidden_dim), std=filter_init_std, dtype=dtype), name="sfs_real"
            )
            self.sfs_imag = Parameter(
                nn_init.normal(rng, (m, hidden_dim), std=filter_init_std, dtype=dtype), name="sfs_imag"
            )

        self.filter_norm = LayerNorm(hidden_dim, dtype=dtype)
        self.filter_dropout = Dropout(dropout, rng=np.random.default_rng(rng.integers(2**32)))
        self.ffn = PointwiseFeedForward(hidden_dim, rng=rng, dtype=dtype)
        self.ffn_norm = LayerNorm(hidden_dim, dtype=dtype)
        self.ffn_dropout = Dropout(dropout, rng=np.random.default_rng(rng.integers(2**32)))
        # Parameter-version-keyed combined complex filter for the fused
        # path; see _combined_filter for the invalidation contract.
        self._filt_cache = ParamCache()

    @staticmethod
    def _check_mask(mask: np.ndarray, m: int) -> np.ndarray:
        mask = np.asarray(mask, dtype=np.float64).reshape(-1)
        if mask.shape[0] != m:
            raise ValueError(f"mask has {mask.shape[0]} bins, expected {m}")
        return mask

    # ------------------------------------------------------------------
    def _combined_filter(self) -> np.ndarray:
        """Cached ``(1-γ)·mask_D·W_D + γ·mask_S·W_S`` for the fused op.

        Backed by a :class:`~repro.nn.workspace.ParamCache` (the same
        mechanism attention uses for its concatenated Q/K/V weight):
        keyed on the global parameter-mutation epoch plus the identity
        of the parameter payloads, so the combined filter is rebuilt
        exactly once per parameter update even though the contrastive
        objective encodes every batch three times.  Call
        :meth:`invalidate_filter_cache` after mutating filter parameter
        ``.data`` in place by hand.
        """
        payloads = (
            self.dfs_real.data,
            self.dfs_imag.data,
            self.sfs_real.data,
            self.sfs_imag.data,
        )

        def build():
            return combined_filter(
                self.dfs_real, self.dfs_imag, self.dfs_mask,
                self.sfs_real, self.sfs_imag, self.sfs_mask,
                self.gamma,
            )

        return self._filt_cache.get(payloads, build, extra=self.gamma)

    def invalidate_filter_cache(self) -> None:
        """Drop the cached combined filter (after manual weight edits)."""
        self._filt_cache.invalidate()

    def mix_spectra(self, x: Tensor) -> Tensor:
        """Eqs. 21 + 25 + 26-27: filter, mix, return time-domain signal.

        Both branches active -> the fused single-FFT-pair op; single
        branch (ablations w/oD and w/oS) -> the original per-branch
        :func:`spectral_filter`, byte-for-byte the seed behaviour.

        The combined filter is handed over as a *provider* (the bound
        cached method) rather than a precomputed array so static-graph
        replays re-fetch it after each optimizer step; the
        :class:`~repro.nn.workspace.ParamCache` behind it still
        collapses the three contrastive encodes of one step to a single
        recombination.
        """
        if self.dfs_mask is None:
            return spectral_filter(x, self.sfs_real, self.sfs_imag, self.sfs_mask)
        if self.sfs_mask is None:
            return spectral_filter(x, self.dfs_real, self.dfs_imag, self.dfs_mask)
        return spectral_filter_mixed(
            x,
            self.dfs_real, self.dfs_imag, self.dfs_mask,
            self.sfs_real, self.sfs_imag, self.sfs_mask,
            self.gamma,
            filt_provider=self._combined_filter,
        )

    def forward(self, x: Tensor) -> Tensor:
        return self._position_wise(x, self.mix_spectra(x))

    def forward_last(self, x: Tensor) -> Tensor:
        """The block's output at the last position only: ``(B, 1, d)``.

        Equals ``forward(x)[:, -1:]`` (to float reassociation).  The FFT
        mix needs all ``N`` input positions, so it runs in full; the
        rest of the block is position-wise, so it runs on position
        ``N-1`` alone.  Both dropout sites still draw their full-length
        masks and keep the last row, which leaves every generator
        stream, and so every other mask, unchanged.
        """
        filtered = self.mix_spectra(x)
        last = (slice(None), slice(-1, None))
        return self._position_wise(
            F.getitem(x, last), F.getitem(filtered, last), seq_len=x.shape[1]
        )

    def _position_wise(self, x: Tensor, filtered: Tensor, seq_len: int | None = None) -> Tensor:
        # Eq. 28: residual + dropout + LayerNorm.
        hidden = self.filter_norm(F.add(x, self.filter_dropout(filtered, seq_len=seq_len)))
        # Eqs. 29-30: FFN with densely-residual LayerNorm.  The triple
        # residual runs as one fused add node (bitwise the chained sum).
        ffn_out = self.ffn(hidden)
        return self.ffn_norm(F.add3(x, hidden, self.ffn_dropout(ffn_out, seq_len=seq_len)))
