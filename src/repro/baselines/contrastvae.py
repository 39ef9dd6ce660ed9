"""ContrastVAE baseline (Wang et al., CIKM 2022), simplified.

A variational transformer encoder: the user state is mapped to a
Gaussian posterior ``N(mu, sigma^2)``; two reparameterized samples form
the contrastive views (variational augmentation) while the decoder
scores the next item from a sampled latent.  Loss = CE + beta * KL +
lambda * InfoNCE between the two samples.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import functional as F
from repro.autograd.graph import record_host
from repro.autograd.tensor import Tensor, no_grad
from repro.baselines.sasrec import SASRec
from repro.core.contrastive import info_nce_loss
from repro.data.batching import Batch
from repro.nn import Linear

__all__ = ["ContrastVAE"]


class ContrastVAE(SASRec):
    def __init__(
        self,
        num_items: int,
        max_len: int = 50,
        hidden_dim: int = 64,
        num_layers: int = 2,
        num_heads: int = 2,
        cl_weight: float = 0.1,
        cl_temperature: float = 1.0,
        kl_weight: float = 0.01,
        embed_dropout: float = 0.3,
        hidden_dropout: float = 0.3,
        seed: int = 0,
        dtype=None,
    ) -> None:
        super().__init__(
            num_items=num_items,
            max_len=max_len,
            hidden_dim=hidden_dim,
            num_layers=num_layers,
            num_heads=num_heads,
            embed_dropout=embed_dropout,
            hidden_dropout=hidden_dropout,
            seed=seed,
            dtype=dtype,
        )
        rng = np.random.default_rng(seed + 14)
        self.mu_head = Linear(hidden_dim, hidden_dim, rng=rng, dtype=self.dtype)
        self.logvar_head = Linear(hidden_dim, hidden_dim, rng=rng, dtype=self.dtype)
        self.cl_weight = cl_weight
        self.cl_temperature = cl_temperature
        self.kl_weight = kl_weight
        self._eps_rng = np.random.default_rng(seed + 15)

    # ------------------------------------------------------------------
    def _posterior(self, input_ids: np.ndarray) -> tuple[Tensor, Tensor]:
        user = self.user_representation(input_ids)
        mu = self.mu_head(user)
        logvar = F.clip(self.logvar_head(user), -8.0, 8.0)
        return mu, logvar

    def _sample(self, mu: Tensor, logvar: Tensor) -> Tensor:
        eps_data = self._eps_rng.standard_normal(mu.shape).astype(mu.dtype)
        # Static-graph replay: redraw the reparameterization noise into
        # the same array each step, consuming the generator exactly as a
        # dynamic run would.
        record_host(
            lambda: np.copyto(eps_data, self._eps_rng.standard_normal(eps_data.shape)),
            "contrastvae.eps",
        )
        std = F.exp(F.mul(logvar, 0.5))
        return F.add(mu, F.mul(std, Tensor(eps_data)))

    # ------------------------------------------------------------------
    def encode_users(self, input_ids: np.ndarray) -> np.ndarray:
        """The posterior mean ``mu`` (the mean latent) per window.

        Serving and evaluation both rank by this vector:
        :meth:`predict_scores` is ``encode_users(ids) @ context``.
        """
        users = super().encode_users(input_ids)
        with no_grad():
            return self.mu_head(Tensor(users)).data

    def loss(self, batch: Batch) -> Tensor:
        mu, logvar = self._posterior(batch.input_ids)
        z1 = self._sample(mu, logvar)
        z2 = self._sample(mu, logvar)
        rec = F.linear_cross_entropy(z1, self._score_table(), batch.targets)
        # KL(N(mu, sigma) || N(0, I)) = -0.5 * sum(1 + logvar - mu^2 - e^logvar)
        kl_terms = F.sub(
            F.add(F.mul(mu, mu), F.exp(logvar)),
            F.add(logvar, 1.0),
        )
        kl = F.mul(F.mean(F.sum(kl_terms, axis=1)), 0.5)
        total = F.add(rec, F.mul(kl, self.kl_weight))
        if self.cl_weight > 0.0:
            cl = info_nce_loss(z1, z2, temperature=self.cl_temperature)
            total = F.add(total, F.mul(cl, self.cl_weight))
        return total
