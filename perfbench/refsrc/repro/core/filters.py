"""Frequency ramp structure: sliding window placement (Eqs. 16-25).

These are pure functions from ``(M, L, alpha, direction)`` to integer
windows ``[start, end)`` over the ``M`` rFFT bins, so the geometry of
the ramp can be unit- and property-tested independently of the model:

- **DFS** (dynamic frequency selection): a window of size
  ``round(alpha * M)`` that slides by ``step = (1 - alpha) * M / (L-1)``
  per layer (Eqs. 17-20).  In the paper's ``<-`` direction layer 0
  covers the top (high-frequency) end and layer L-1 ends at bin 0.
- **SFS** (static frequency split): an exact partition of ``[0, M)``
  into ``L`` bands of size ``~M / L`` (Eqs. 22-24); the union of the L
  windows always covers every bin with no overlap.

Frequency bin 0 is the DC / lowest frequency; bin M-1 is the highest.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

__all__ = ["dfs_windows", "sfs_windows", "window_mask", "ramp_masks", "coverage_report"]

Window = Tuple[int, int]


def _validate(m: int, num_layers: int) -> None:
    if m < 1:
        raise ValueError(f"M must be >= 1, got {m}")
    if num_layers < 1:
        raise ValueError(f"L must be >= 1, got {num_layers}")


def dfs_windows(m: int, num_layers: int, alpha: float, direction: str = "high_to_low") -> List[Window]:
    """Sliding windows of the dynamic frequency selection module.

    Returns one ``[start, end)`` window per layer.  ``direction`` is
    ``"high_to_low"`` (paper's ``<-``) or ``"low_to_high"`` (``->``,
    defined in the paper as the reversed window list).
    """
    _validate(m, num_layers)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    size = max(1, int(round(alpha * m)))
    step = (m - size) / (num_layers - 1) if num_layers > 1 else 0.0
    windows: List[Window] = []
    for layer in range(num_layers):
        end = m - int(round(layer * step))
        start = end - size
        start, end = max(0, start), min(m, end)
        windows.append((start, end))
    if direction == "high_to_low":
        return windows
    if direction == "low_to_high":
        return list(reversed(windows))
    raise ValueError(f"unknown direction {direction!r}")


def sfs_windows(m: int, num_layers: int, direction: str = "high_to_low") -> List[Window]:
    """Static frequency split: an exact L-way partition of ``[0, M)``.

    Band boundaries are ``round(t * M / L)`` so the union of all layers'
    windows is exactly ``[0, M)`` with no gaps or overlaps — the
    coverage guarantee Section III-B3 relies on.
    """
    _validate(m, num_layers)
    bounds = [int(round(t * m / num_layers)) for t in range(num_layers + 1)]
    ascending = [(bounds[t], bounds[t + 1]) for t in range(num_layers)]
    if direction == "high_to_low":
        return list(reversed(ascending))  # layer 0 gets the top band
    if direction == "low_to_high":
        return ascending
    raise ValueError(f"unknown direction {direction!r}")


def window_mask(m: int, window: Window, dtype=np.float64) -> np.ndarray:
    """Binary indicator vector sigma(omega) for a ``[start, end)`` window."""
    start, end = window
    if not 0 <= start <= end <= m:
        raise ValueError(f"window {window} out of bounds for M={m}")
    mask = np.zeros(m, dtype=dtype)
    mask[start:end] = 1.0
    return mask


def coverage_report(m: int, num_layers: int, alpha: float) -> dict:
    """Quantify which frequency bins the ramp structure touches.

    Explains Table III's DFS-vs-DFS+SFS contrast: when
    ``alpha < 1/L`` the sliding dynamic windows leave gaps between
    consecutive steps; the static split always covers everything.

    Returns a dict with ``dfs_covered`` / ``sfs_covered`` /
    ``combined_covered`` bin counts, the per-bin hit counts, and the
    boolean ``dfs_has_gaps``.
    """
    dfs_hits = np.zeros(m, dtype=int)
    for start, end in dfs_windows(m, num_layers, alpha):
        dfs_hits[start:end] += 1
    sfs_hits = np.zeros(m, dtype=int)
    for start, end in sfs_windows(m, num_layers):
        sfs_hits[start:end] += 1
    combined = (dfs_hits + sfs_hits) > 0
    return {
        "dfs_covered": int((dfs_hits > 0).sum()),
        "sfs_covered": int((sfs_hits > 0).sum()),
        "combined_covered": int(combined.sum()),
        "dfs_hits": dfs_hits,
        "sfs_hits": sfs_hits,
        "dfs_has_gaps": bool((dfs_hits == 0).any()),
    }


def ramp_masks(
    m: int,
    num_layers: int,
    alpha: float,
    dfs_direction: str,
    sfs_direction: str,
    dtype=np.float64,
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Per-layer DFS and SFS masks for a full ramp configuration."""
    dfs = [window_mask(m, w, dtype) for w in dfs_windows(m, num_layers, alpha, dfs_direction)]
    sfs = [window_mask(m, w, dtype) for w in sfs_windows(m, num_layers, sfs_direction)]
    return dfs, sfs
