"""Contrastive objectives (Eqs. 33-35).

The paper regularizes the recommendation loss with a symmetric InfoNCE
between an *unsupervised* view (the same sequence passed through the
network twice, differing only through dropout) and a *supervised* view
(another training sequence with the same target item, following
DuoRec).  Negatives are all other augmented samples in the batch.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor

__all__ = ["info_nce_loss", "same_target_contrastive_loss"]


def info_nce_loss(view_a: Tensor, view_b: Tensor, temperature: float = 1.0) -> Tensor:
    """Symmetric NT-Xent loss between two aligned batches of vectors.

    Row ``i`` of ``view_a`` and row ``i`` of ``view_b`` are positives;
    every other row in the concatenated ``2B`` batch is a negative.
    Computing the loss over the concatenation in both directions covers
    both terms of Eq. 33.

    Parameters
    ----------
    view_a, view_b:
        Tensors of shape ``(B, d)``.
    temperature:
        Softmax temperature; similarities are cosine (L2-normalized).
    """
    if view_a.shape != view_b.shape:
        raise ValueError(f"view shapes differ: {view_a.shape} vs {view_b.shape}")
    batch = view_a.shape[0]
    if batch < 2:
        # A single sample has no in-batch negatives; the loss is zero by
        # convention (keeps tiny tail batches harmless).
        return F.mul(F.sum(view_a), 0.0)

    z = F.concat([view_a, view_b], axis=0)  # (2B, d)
    z = F.l2_normalize(z, axis=-1)
    sim = F.matmul(z, F.transpose(z, (1, 0)))  # (2B, 2B) cosine
    sim = F.mul(sim, 1.0 / temperature)
    # A sample is never its own negative.
    sim = F.masked_fill(sim, np.eye(2 * batch, dtype=bool), -1e9)
    targets = np.concatenate([np.arange(batch, 2 * batch), np.arange(0, batch)])
    return F.cross_entropy(sim, targets)


def same_target_contrastive_loss(model, batch, weight: float, temperature: float) -> Tensor:
    """The joint objective of Eq. 36, shared by SLIME4Rec and DuoRec.

    ``L_rec + weight · NCE(h', h'_s)``: the recommendation loss of the
    main pass plus InfoNCE between the same inputs under fresh dropout
    masks (``h'``) and the same-target positives (``h'_s``).  The three
    encodes run as one stacked ``(3B, N, d)`` walk
    (:meth:`~repro.core.encoder.SequentialEncoderBase.encode_views`)
    whose per-view dropout draws are the masks three separate encodes
    would take.  With ``weight <= 0`` or no positives in the batch it is
    the recommendation loss alone.
    """
    if weight <= 0.0 or batch.positive_ids is None:
        return model.recommendation_loss(batch.input_ids, batch.targets)
    user, unsup_view, sup_view = model.encode_views(
        (batch.input_ids, batch.input_ids, batch.positive_ids)
    )
    rec = model.prediction_loss(user, batch.targets)
    cl = info_nce_loss(unsup_view, sup_view, temperature=temperature)
    return F.add(rec, F.mul(cl, weight))
