"""Hyper-parameter grid search on the validation split.

The paper tunes alpha in [0, 1], dropout in {0.1..0.5}, L in {2,4,8}
and N in {25..100} on validation; :func:`grid_search` automates that
protocol for any model the :class:`~repro.train.trainer.Trainer`
accepts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Sequence

from repro.data.dataset import SequenceDataset
from repro.train.trainer import TrainConfig, Trainer

__all__ = ["GridSearchResult", "grid_search"]


@dataclass
class GridSearchResult:
    """All trials of a grid search, sorted by validation score."""

    monitor: str
    trials: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def best(self) -> Dict[str, Any]:
        if not self.trials:
            raise ValueError("grid search produced no trials")
        return self.trials[0]

    def summary(self, top: int = 5) -> str:
        lines = [f"grid search over {len(self.trials)} trials (monitor={self.monitor})"]
        for trial in self.trials[:top]:
            params = ", ".join(f"{k}={v}" for k, v in trial["params"].items())
            lines.append(f"  {trial['score']:.4f}  {params}")
        return "\n".join(lines)


def grid_search(
    model_factory: Callable[..., Any],
    dataset: SequenceDataset,
    param_grid: Mapping[str, Sequence[Any]],
    train_config: TrainConfig | None = None,
    monitor: str = "NDCG@10",
    with_same_target: bool | None = None,
) -> GridSearchResult:
    """Exhaustive search over the cartesian product of ``param_grid``.

    Parameters
    ----------
    model_factory:
        Callable receiving one keyword per grid axis and returning a
        fresh model (e.g. ``lambda **p: Slime4Rec(SlimeConfig(..., **p))``).
    dataset:
        Dataset providing train/valid splits.
    param_grid:
        ``{param_name: [candidate values]}``.
    train_config:
        Budget per trial (paper: full epochs; tests: a couple).
    monitor:
        Validation metric to maximize.

    Returns
    -------
    GridSearchResult
        ``result.best["params"]`` is the winning combination;
        ``result.best["test_metrics"]`` its test-split metrics.
    """
    if not param_grid:
        raise ValueError("param_grid must not be empty")
    train_config = train_config or TrainConfig()
    if train_config.monitor != monitor:
        train_config = TrainConfig(**{**train_config.__dict__, "monitor": monitor})

    names = sorted(param_grid)
    result = GridSearchResult(monitor=monitor)
    for combo in itertools.product(*(param_grid[n] for n in names)):
        params = dict(zip(names, combo))
        model = model_factory(**params)
        trainer = Trainer(model, dataset, train_config, with_same_target=with_same_target)
        history = trainer.fit()
        result.trials.append(
            {
                "params": params,
                "score": history.best_value,
                "best_epoch": history.best_epoch,
                "test_metrics": dict(trainer.test().metrics),
            }
        )
    result.trials.sort(key=lambda t: -t["score"])
    return result
