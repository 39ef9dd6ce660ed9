"""Filter mixer block (Section III-B): DFS + SFS + FFN.

Each block:

1. FFTs the input along the sequence axis (Eq. 12),
2. multiplies the spectrum by a learnable *dynamic* filter restricted
   to the layer's sliding window (Eq. 21) and, in parallel, by a
   learnable *static* filter restricted to the layer's split band
   (Eq. 25),
3. mixes the two spectra ``(1-gamma) * X_D + gamma * X_S`` and inverse
   FFTs back to time (Eqs. 26-27) — by linearity the implementation
   filters the spectrum once with the mixed filter
   ``(1-gamma)·mask_D·W_D + gamma·mask_S·W_S``, which is mathematically
   identical and needs one FFT pair,
4. dropout + residual + LayerNorm (Eq. 28),
5. pointwise FFN with the densely-residual LayerNorm of Eq. 30.

Steps 4 and 5's dropout → residual add → LayerNorm tails each run as
one fused node (``LayerNorm(sub, residual=..., dropout=...)``).

The last block of a user-vector encode computes position ``N-1`` only
(:meth:`FilterMixerLayer.forward_last`): its filter output is one
weighted sum over positions, with no FFT of the activations.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import functional as F
from repro.autograd.spectral import num_frequency_bins, spectral_filter
from repro.autograd.tensor import Tensor
from repro.core.encoder import PointwiseFeedForward
from repro.nn import Dropout, LayerNorm, Module, Parameter
from repro.nn import init as nn_init

__all__ = ["FilterMixerLayer", "run_mixer_layers"]


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

        # One (scale, w_real, w_imag) branch per enabled filter, with
        # scale = weight * mask as a float64 (M, 1) column; the op casts
        # it to the input dtype.  A lone branch gets weight 1 (gamma
        # then mixes nothing).
        both = dfs_mask is not None and sfs_mask is not None
        self.dfs_mask = self.sfs_mask = None
        self._branches = []
        for branch, mask, weight in (("dfs", dfs_mask, 1.0 - gamma), ("sfs", sfs_mask, gamma)):
            if mask is None:
                continue
            # A mask with the wrong bin count fails this reshape (ValueError).
            mask = np.asarray(mask, dtype=np.float64).reshape(m)
            real, imag = (
                Parameter(
                    nn_init.normal(rng, (m, hidden_dim), std=filter_init_std, dtype=dtype),
                    name=f"{branch}_{part}",
                )
                for part in ("real", "imag")
            )
            setattr(self, f"{branch}_mask", mask)
            setattr(self, f"{branch}_real", real)
            setattr(self, f"{branch}_imag", imag)
            self._branches.append(((weight if both else 1.0) * mask[:, None], real, imag))

        self.filter_norm = LayerNorm(hidden_dim, dtype=dtype)
        self.filter_dropout = Dropout(dropout, rng=np.random.default_rng(rng.integers(2**32)))
        self.ffn = PointwiseFeedForward(hidden_dim, rng=rng, dtype=dtype)
        self.ffn_norm = LayerNorm(hidden_dim, dtype=dtype)
        self.ffn_dropout = Dropout(dropout, rng=np.random.default_rng(rng.integers(2**32)))

    def mix_spectra(self, x: Tensor, last: bool = False) -> Tensor:
        """Eqs. 21 + 25 + 26-27: filter, mix, return time-domain signal.

        One :func:`~repro.autograd.spectral.spectral_filter` call over
        this layer's branches, whichever of DFS/SFS are enabled.  The op
        recombines the mixed filter from the live parameters on every
        call (and every static-graph replay), so nothing here can go
        stale after an optimizer step or a manual weight edit.  With
        ``last`` it returns position ``N-1`` only, ``(B, 1, d)``.
        """
        return spectral_filter(x, self._branches, last=last)

    def forward(self, x: Tensor) -> Tensor:
        return self._position_wise(x, self.mix_spectra(x))

    def forward_last(self, x: Tensor) -> Tensor:
        """The block's output at the last position only: ``(B, 1, d)``.

        Equals ``forward(x)[:, -1:]`` (to float reassociation).  The
        filter's last output row is one weighted sum over the ``N``
        input positions (``mix_spectra(x, last=True)``, no FFT of ``x``),
        and the rest of the block is position-wise, so it runs on
        position ``N-1`` alone.  Both dropout sites draw only the last
        row of their masks and skip their generators past the rest, so
        every mask and every generator stream is the full-length one.
        """
        last = F.getitem(x, (slice(None), slice(-1, None)))
        return self._position_wise(last, self.mix_spectra(x, last=True), seq_len=x.shape[1])

    def _position_wise(self, x: Tensor, filtered: Tensor, seq_len: int | None = None) -> Tensor:
        # Eq. 28: dropout + residual + LayerNorm, one fused node.
        hidden = self.filter_norm(
            filtered, residual=(x,), dropout=self.filter_dropout, seq_len=seq_len
        )
        # Eqs. 29-30: FFN, then the densely-residual LayerNorm over
        # ``(x + hidden) + dropout(ffn)``, one fused node.
        return self.ffn_norm(
            self.ffn(hidden), residual=(x, hidden), dropout=self.ffn_dropout, seq_len=seq_len
        )


def run_mixer_layers(layers, hidden: Tensor, inject_noise, last_only: bool = False) -> Tensor:
    """Run a stack of :class:`FilterMixerLayer` blocks over ``hidden``.

    ``inject_noise`` maps each block's input (the Figure-6 noise hook,
    an identity when ``noise_eps`` is zero).  With ``last_only`` the
    last block runs :meth:`FilterMixerLayer.forward_last` and the result
    is ``(B, 1, d)``; otherwise ``(B, N, d)``.  SLIME4Rec and FMLP-Rec
    share this loop for both ``encode_states`` and
    ``user_representation``.
    """
    *body, last = layers
    for layer in body:
        hidden = layer(inject_noise(hidden))
    run_last = last.forward_last if last_only else last
    return run_last(inject_noise(hidden))
