"""Training loop, early stopping, tuning, and robustness utilities."""

from repro.train.trainer import Trainer, TrainConfig, TrainHistory
from repro.train.tuning import GridSearchResult, grid_search

__all__ = ["Trainer", "TrainConfig", "TrainHistory", "GridSearchResult", "grid_search"]
