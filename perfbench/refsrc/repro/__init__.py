"""SLIME4Rec reproduction: contrastive enhanced slide filter mixer.

A from-scratch reproduction of *"Contrastive Enhanced Slide Filter
Mixer for Sequential Recommendation"* (ICDE 2023) including its full
substrate: a numpy autograd engine, neural-network modules, ten
baseline recommenders, synthetic frequency-structured workloads, the
leave-one-out evaluation protocol, and an experiment harness that
regenerates every table and figure of the paper.

Quickstart::

    from repro import SlimeConfig, Slime4Rec, Trainer, TrainConfig, load_preset

    dataset = load_preset("beauty", scale=0.3, max_len=24)
    model = Slime4Rec(SlimeConfig(num_items=dataset.num_items, max_len=24))
    trainer = Trainer(model, dataset, TrainConfig(epochs=10))
    trainer.fit()
    print(trainer.test().as_row())
"""

from repro.autograd import Tensor, no_grad
from repro.core import SlideMode, Slime4Rec, SlimeConfig
from repro.data import SequenceDataset, load_preset, load_interactions_file
from repro.evaluation import Evaluator
from repro.train import TrainConfig, Trainer
from repro.baselines import BASELINE_NAMES, build_baseline

__version__ = "1.0.0"

__all__ = [
    "Tensor",
    "no_grad",
    "SlimeConfig",
    "SlideMode",
    "Slime4Rec",
    "SequenceDataset",
    "load_preset",
    "load_interactions_file",
    "Evaluator",
    "TrainConfig",
    "Trainer",
    "BASELINE_NAMES",
    "build_baseline",
    "__version__",
]
