"""SLIME4Rec: the paper's primary contribution.

Public surface:

- :class:`~repro.core.config.SlimeConfig` — every hyper-parameter of the
  model (Table-IV slide modes, alpha, gamma, lambda, ...).
- :class:`~repro.core.model.Slime4Rec` — the contrastive enhanced slide
  filter mixer model.
- :mod:`~repro.core.filters` — frequency ramp structure windows (DFS and
  SFS) as pure functions, independently testable.
- :class:`~repro.core.encoder.SequentialEncoderBase` — shared embedding
  + prediction plumbing reused by all baselines.
"""

from repro.core.config import SlimeConfig, SlideMode
from repro.core.filters import (
    coverage_report,
    dfs_windows,
    sfs_windows,
    window_mask,
    ramp_masks,
)
from repro.core.encoder import SequentialEncoderBase, PointwiseFeedForward
from repro.core.contrastive import info_nce_loss
from repro.core.filter_mixer import FilterMixerLayer
from repro.core.model import Slime4Rec

__all__ = [
    "SlimeConfig",
    "SlideMode",
    "coverage_report",
    "dfs_windows",
    "sfs_windows",
    "window_mask",
    "ramp_masks",
    "SequentialEncoderBase",
    "PointwiseFeedForward",
    "info_nce_loss",
    "FilterMixerLayer",
    "Slime4Rec",
]
