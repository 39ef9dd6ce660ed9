"""Section III-F: runtime comparison of filter mixer vs self-attention.

The paper argues the filter mixer costs ``O(n log n * d)`` against
self-attention's ``O(n^2 d + n d^2)``.  This experiment measures the
wall-clock forward+backward time of a single layer of each kind over a
range of sequence lengths, so the scaling *shape* can be checked.  Both
layers are built in :data:`DTYPE`, the dtype of the timed inputs, so
neither timing includes a mixed-dtype promotion.
"""

from __future__ import annotations

import time
from typing import Dict, Sequence

import numpy as np

from repro.autograd.spectral import num_frequency_bins
from repro.autograd.tensor import Tensor
from repro.core.filter_mixer import FilterMixerLayer
from repro.nn import MultiHeadSelfAttention

__all__ = ["run_complexity_comparison"]

#: dtype of the timed layers' parameters and inputs
DTYPE = "float32"


def _time_layer(forward, batch: int, n: int, d: int, repeats: int) -> float:
    rng = np.random.default_rng(0)
    best = np.inf
    for _ in range(repeats):
        x = Tensor(rng.normal(size=(batch, n, d)).astype(DTYPE), requires_grad=True)
        start = time.perf_counter()
        out = forward(x)
        out.sum().backward()
        best = min(best, time.perf_counter() - start)
    return best


def run_complexity_comparison(
    seq_lens: Sequence[int] = (16, 32, 64, 128),
    hidden_dim: int = 64,
    batch: int = 32,
    repeats: int = 3,
) -> Dict[str, Dict[int, float]]:
    """Milliseconds per forward+backward of one layer, by sequence length."""
    results: Dict[str, Dict[int, float]] = {"filter_mixer": {}, "self_attention": {}}
    for n in seq_lens:
        m = num_frequency_bins(n)
        mixer = FilterMixerLayer(
            n, hidden_dim, np.ones(m), np.ones(m), rng=np.random.default_rng(0),
            dtype=DTYPE,
        )
        mixer.eval()
        attention = MultiHeadSelfAttention(
            hidden_dim, 2, causal=True, rng=np.random.default_rng(0), dtype=DTYPE
        )
        attention.eval()
        results["filter_mixer"][n] = 1e3 * _time_layer(mixer, batch, n, hidden_dim, repeats)
        results["self_attention"][n] = 1e3 * _time_layer(attention, batch, n, hidden_dim, repeats)
    return results
