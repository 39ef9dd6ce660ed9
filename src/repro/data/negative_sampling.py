"""Shared negative sampling for sampled-softmax training and evaluation.

One seeded, vectorized :class:`NegativeSampler` backs both consumers of
negative item draws in this repo:

- **sampled-softmax training**
  (:func:`repro.autograd.functional.sampled_softmax_loss` via
  ``SequentialEncoderBase.prediction_loss``): a shared candidate set of
  ``K`` negatives is drawn *with replacement* per step and scored
  against every row of the batch, with the standard logQ correction
  (subtract ``log q(c)`` from each candidate's logit) making the
  sampled softmax a consistent estimator of the full softmax;
- **sampled evaluation** (:class:`repro.evaluation.sampled.SampledEvaluator`):
  per-user negatives are drawn *without replacement* from the eligible
  set (catalog minus history, target and padding) in one vectorized
  ``choice`` — no rejection loop, so a catalog smaller than the
  requested negative count raises immediately instead of hanging.

Two proposal distributions over the real item ids ``1..num_items``
(padding id 0 is never drawn):

``"uniform"``
    ``q(i) = 1 / num_items``.  The classic evaluation protocol and the
    safe training default.
``"log_uniform"``
    The Zipfian sampler of TF's ``log_uniform_candidate_sampler``:
    ``q(i) = log(1 + 1/i) / log(num_items + 1)``, drawn in O(K) by
    inverting the CDF (``i = floor(exp(u * log(V + 1)))``).  Matches
    the empirical long-tail of interaction frequencies when item ids
    are popularity-sorted, which concentrates negatives on the items a
    full softmax spends most of its normalizer mass on.

All draws come from one ``numpy`` PCG64 generator seeded at
construction, so a training run's negative stream is reproducible from
``(seed, call sequence)`` alone.
"""

from __future__ import annotations

from typing import Dict, Tuple, Union

import numpy as np

from repro.autograd.workspace import (
    check_generator_state,
    generator_state,
    set_generator_state,
)

__all__ = ["NegativeSampler"]


class NegativeSampler:
    """Seeded, vectorized sampler of negative item ids in ``1..num_items``.

    Parameters
    ----------
    num_items:
        Real catalog size; draws cover ``1..num_items`` (0 is padding
        and never sampled).
    strategy:
        ``"uniform"`` or ``"log_uniform"`` (see module docstring).
    seed:
        Generator seed; two samplers built with equal arguments produce
        identical draw sequences.
    """

    STRATEGIES: Tuple[str, ...] = ("uniform", "log_uniform")

    def __init__(self, num_items: int, strategy: str = "uniform", seed: int = 0) -> None:
        if num_items < 1:
            raise ValueError(f"num_items must be >= 1, got {num_items}")
        if strategy not in self.STRATEGIES:
            raise ValueError(
                f"unknown negative-sampling strategy {strategy!r}; "
                f"choose from {self.STRATEGIES}"
            )
        self.num_items = int(num_items)
        self.strategy = strategy
        self.seed = int(seed)
        self._rng = np.random.default_rng(seed)
        # log(V + 1), the log-uniform CDF normalizer.
        self._log_range = float(np.log1p(self.num_items))

    # ------------------------------------------------------------------
    def sample(self, size: Union[int, Tuple[int, ...]]) -> np.ndarray:
        """Draw item ids *with replacement* from the proposal distribution.

        Returns an int64 array of the requested ``size`` (int or shape
        tuple) with values in ``1..num_items``.  This is the training
        path: duplicates are possible and are accounted for by the logQ
        correction, not deduplicated.
        """
        if self.strategy == "uniform":
            return self._rng.integers(1, self.num_items + 1, size=size, dtype=np.int64)
        # Inverse-CDF log-uniform draw: u ~ U[0, 1) maps to
        # floor(exp(u * log(V+1))) in 1..V with
        # P(i) = (log(i+1) - log(i)) / log(V+1).
        u = self._rng.random(size=size)
        ids = np.floor(np.exp(u * self._log_range)).astype(np.int64)
        # exp/floor rounding can graze V+1 when u -> 1; clip, never 0.
        return np.clip(ids, 1, self.num_items)

    def log_q(self, ids: np.ndarray) -> np.ndarray:
        """``log q(id)`` of the proposal distribution, as float64.

        Used for the sampled-softmax logQ correction; ``ids`` must lie
        in the proposal support ``1..num_items`` — out-of-support ids
        have ``q = 0``, whose log would silently poison a correction
        with infinities, so they raise instead.
        """
        ids = np.asarray(ids)
        if ids.size and (int(ids.min()) < 1 or int(ids.max()) > self.num_items):
            raise ValueError(
                f"ids outside the proposal support 1..{self.num_items} "
                f"(got min {int(ids.min())}, max {int(ids.max())})"
            )
        if self.strategy == "uniform":
            return np.full(ids.shape, -np.log(self.num_items), dtype=np.float64)
        return np.log(np.log1p(1.0 / ids)) - np.log(self._log_range)

    # ------------------------------------------------------------------
    def sample_excluding(
        self, exclude: np.ndarray, num: int, replace: bool = False
    ) -> np.ndarray:
        """Draw ``num`` ids avoiding ``exclude``, without hanging or O(V) churn.

        The evaluation path (1 positive + n negatives).  Eligibility is
        counted up front from the (typically tiny) ``exclude`` array —
        padding id 0 is always excluded — and a catalog with fewer than
        ``num`` eligible items raises a clear :class:`ValueError`
        immediately, instead of spinning forever the way per-candidate
        rejection sampling does.  Two draw paths, both seeded from the
        sampler's generator:

        - **exact** (small catalogs, or a dense exclusion/request):
          materialize the eligible set once and ``Generator.choice``
          from it, weighted by the proposal distribution;
        - **vectorized over-draw** (large catalogs with plenty of
          eligible mass — the common case sampled evaluation exists
          for): draw batches from :meth:`sample` and filter exclusions
          and duplicates, so cost scales with ``num`` and
          ``len(exclude)``, never with the catalog size.  For the
          weighted proposal this realizes successive (with-discard)
          without-replacement sampling — the same protocol, a different
          tie-break order than the exact path for a given seed.
        """
        exclude = np.asarray(exclude, dtype=np.int64).reshape(-1)
        exclude = np.unique(exclude[(exclude >= 1) & (exclude <= self.num_items)])
        eligible_count = self.num_items - exclude.size
        if not replace and eligible_count < num:
            raise ValueError(
                f"cannot draw {num} distinct negatives: only {eligible_count} "
                f"eligible items remain out of a {self.num_items}-item catalog "
                f"after excluding {exclude.size} seen ids; "
                f"shrink num_negatives or use replace=True"
            )
        if eligible_count == 0:
            raise ValueError(
                f"no eligible negatives remain out of a {self.num_items}-item catalog"
            )
        need = num if replace else 4 * num
        if self.num_items <= 4096 or eligible_count < need:
            eligible = np.setdiff1d(
                np.arange(1, self.num_items + 1, dtype=np.int64), exclude
            )
            if self.strategy == "uniform":
                probs = None
            else:
                weights = np.log1p(1.0 / eligible)
                probs = weights / weights.sum()
            return self._rng.choice(eligible, size=num, replace=replace, p=probs)
        result = np.empty(0, dtype=np.int64)
        while result.size < num:
            draw = self.sample(2 * (num - result.size) + 16)
            draw = draw[~np.isin(draw, exclude)]
            if not replace:
                if result.size:
                    draw = draw[~np.isin(draw, result)]
                _, first = np.unique(draw, return_index=True)
                draw = draw[np.sort(first)]
            result = np.concatenate([result, draw])
        return result[:num]

    # ------------------------------------------------------------------
    # Random-stream capture (the Module.rng_state_dict delegate protocol)
    # ------------------------------------------------------------------
    def rng_state_dict(self) -> Dict:
        """JSON-serializable snapshot: sampler identity + generator bit state.

        The identity fields (``num_items``, ``strategy``, ``seed``) make
        a restore into a differently configured sampler fail loudly
        instead of silently resuming the wrong proposal distribution.
        """
        return {
            "num_items": self.num_items,
            "strategy": self.strategy,
            "seed": self.seed,
            "bit_state": generator_state(self._rng),
        }

    def check_rng_state_dict(self, state: Dict) -> None:
        """Raise unless :meth:`load_rng_state_dict` would accept ``state``."""
        for field in ("num_items", "strategy"):
            if state.get(field) != getattr(self, field):
                raise ValueError(
                    f"sampler state mismatch on {field!r}: checkpoint has "
                    f"{state.get(field)!r}, live sampler has {getattr(self, field)!r}"
                )
        check_generator_state(self._rng, state["bit_state"])

    def load_rng_state_dict(self, state: Dict) -> None:
        """Restore a :meth:`rng_state_dict` snapshot in place."""
        self.check_rng_state_dict(state)
        set_generator_state(self._rng, state["bit_state"])

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"NegativeSampler(num_items={self.num_items}, "
            f"strategy={self.strategy!r}, seed={self.seed})"
        )
