"""Synthetic interaction generators with planted frequency structure.

The paper motivates SLIME4Rec with users whose behaviour mixes
*high-frequency* patterns (e.g. clothing bought at short intervals) and
*low-frequency* patterns (e.g. electronics bought at long intervals)
that are entangled in the chronological sequence (Figure 1).  Real
Amazon/ML-1M/Yelp dumps are not available offline, so this module
generates workloads that plant exactly that structure:

- items are partitioned into categories, each with a characteristic
  *period* (in interaction steps);
- every user prefers a few categories with a random phase; at step
  ``t`` the category is drawn from a softmax over periodic activations
  ``pref * (1 + cos(2*pi*(t + phase) / period))``;
- within a category, items follow a Zipf popularity law with per-user
  affinity re-ranking;
- a configurable fraction of interactions is replaced by uniform noise
  (the "malicious fakes" the paper's filters are meant to attenuate).

Per-dataset presets mirror the *relative* statistics of Table I
(sparsity ordering, dense vs sparse, average length) at laptop scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

import numpy as np

__all__ = ["SyntheticConfig", "generate_interactions", "load_preset", "PRESETS"]


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of the planted-frequency workload generator."""

    name: str = "synthetic"
    num_users: int = 500
    num_items: int = 400
    num_categories: int = 8
    #: categories get periods log-spaced between these bounds
    min_period: float = 2.0
    max_period: float = 32.0
    #: mean/σ of the lognormal sequence-length distribution
    mean_length: float = 10.0
    length_sigma: float = 0.4
    min_length: int = 5
    #: number of categories each user prefers
    user_categories: int = 3
    #: softmax temperature over category activations (lower = more periodic)
    temperature: float = 0.35
    #: Zipf exponent for in-category item popularity
    zipf_exponent: float = 1.1
    #: probability an interaction is replaced by uniform random noise
    noise_prob: float = 0.05
    seed: int = 7

    def scaled(self, factor: float) -> "SyntheticConfig":
        """Return a copy scaled in users/items (used for tiny test sizes)."""
        return replace(
            self,
            num_users=max(30, int(self.num_users * factor)),
            num_items=max(30, int(self.num_items * factor)),
        )


def _category_assignment(cfg: SyntheticConfig) -> Tuple[np.ndarray, np.ndarray]:
    """Assign items to categories and categories to periods."""
    items_per_cat = np.full(cfg.num_categories, cfg.num_items // cfg.num_categories)
    items_per_cat[: cfg.num_items % cfg.num_categories] += 1
    item_category = np.repeat(np.arange(cfg.num_categories), items_per_cat)
    periods = np.geomspace(cfg.min_period, cfg.max_period, cfg.num_categories)
    return item_category, periods


def generate_interactions(cfg: SyntheticConfig) -> List[Tuple[int, int, float]]:
    """Generate ``(user, item, timestamp)`` triples for ``cfg``.

    Timestamps are the per-user interaction step, so chronological order
    within a user is exactly the generation order.
    """
    rng = np.random.default_rng(cfg.seed)
    item_category, periods = _category_assignment(cfg)
    categories: Dict[int, np.ndarray] = {
        c: np.where(item_category == c)[0] for c in range(cfg.num_categories)
    }

    # Zipf popularity inside each category.
    zipf_weights: Dict[int, np.ndarray] = {}
    for c, items in categories.items():
        ranks = np.arange(1, len(items) + 1, dtype=float)
        w = ranks ** (-cfg.zipf_exponent)
        zipf_weights[c] = w / w.sum()

    interactions: List[Tuple[int, int, float]] = []
    for user in range(cfg.num_users):
        length = int(
            np.clip(
                rng.lognormal(np.log(cfg.mean_length), cfg.length_sigma),
                cfg.min_length,
                cfg.mean_length * 6,
            )
        )
        prefs = rng.choice(cfg.num_categories, size=cfg.user_categories, replace=False)
        pref_strength = rng.uniform(0.5, 1.5, size=cfg.user_categories)
        phases = rng.uniform(0, cfg.max_period, size=cfg.user_categories)
        # Per-user item affinity jitter so users differ inside a category.
        affinity = rng.uniform(0.5, 1.5, size=cfg.num_items)

        for t in range(length):
            if rng.random() < cfg.noise_prob:
                item = int(rng.integers(cfg.num_items))
            else:
                activation = pref_strength * (
                    1.0 + np.cos(2.0 * np.pi * (t + phases) / periods[prefs])
                )
                logits = activation / cfg.temperature
                probs = np.exp(logits - logits.max())
                probs /= probs.sum()
                cat = int(prefs[rng.choice(cfg.user_categories, p=probs)])
                weights = zipf_weights[cat] * affinity[categories[cat]]
                weights = weights / weights.sum()
                item = int(rng.choice(categories[cat], p=weights))
            interactions.append((user, item, float(t)))
    return interactions


#: Scaled-down presets mirroring Table I's qualitative profile:
#: three sparse Amazon-style datasets, one dense ML-1M-style dataset,
#: and a Yelp-style dataset, in the paper's sparsity ordering.
PRESETS: Dict[str, SyntheticConfig] = {
    "beauty": SyntheticConfig(
        name="beauty", num_users=600, num_items=420, mean_length=9.0,
        min_period=2.0, max_period=24.0, noise_prob=0.05, seed=11,
    ),
    "clothing": SyntheticConfig(
        name="clothing", num_users=800, num_items=600, mean_length=7.0,
        min_period=2.0, max_period=16.0, noise_prob=0.08, seed=12,
    ),
    "sports": SyntheticConfig(
        name="sports", num_users=700, num_items=500, mean_length=8.0,
        min_period=2.0, max_period=24.0, noise_prob=0.06, seed=13,
    ),
    "ml1m": SyntheticConfig(
        name="ml1m", num_users=240, num_items=260, mean_length=60.0,
        num_categories=12, user_categories=5, min_period=3.0,
        max_period=48.0, noise_prob=0.04, seed=14,
    ),
    "yelp": SyntheticConfig(
        name="yelp", num_users=700, num_items=520, mean_length=10.0,
        min_period=2.0, max_period=32.0, noise_prob=0.07, seed=15,
    ),
}


def load_preset(name: str, scale: float = 1.0, max_len: int = 50, k_core: int = 5):
    """Build a :class:`~repro.data.dataset.SequenceDataset` for a preset.

    Parameters
    ----------
    name:
        One of ``beauty, clothing, sports, ml1m, yelp``.
    scale:
        User/item count multiplier; benches use ``scale<1`` for speed.
    max_len:
        Sequence truncation length ``N``.
    k_core:
        Minimum user/item interaction count.
    """
    from repro.data.dataset import SequenceDataset

    if name not in PRESETS:
        raise KeyError(f"unknown preset '{name}'; choose from {sorted(PRESETS)}")
    cfg = PRESETS[name]
    if scale != 1.0:
        cfg = cfg.scaled(scale)
    interactions = generate_interactions(cfg)
    return SequenceDataset(interactions, name=cfg.name, max_len=max_len, k_core=k_core)
