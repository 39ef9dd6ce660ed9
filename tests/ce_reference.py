"""Test oracle for the full-softmax head: the dense composition.

:func:`dense_cross_entropy` is Eq. 31-32 written out as three graph
nodes: the logits GEMM ``inputs @ weight.T`` with the leading shape of
``inputs`` kept, then a softmax cross-entropy node that keeps the
``(R, V)`` log-probabilities for its backward.  ``F.linear_cross_entropy``
must match it bit for bit when the head fits one column block, and to
reassociation tolerance when it streams.
"""

import numpy as np

from repro.autograd import functional as F
from repro.autograd.functional import _make
from repro.autograd.tensor import Tensor, as_tensor


def _cross_entropy(logits, targets, ignore_index=None):
    logits = as_tensor(logits)
    targets = targets.data if isinstance(targets, Tensor) else np.asarray(targets)
    log_probs = rows = safe_targets = valid = count = None

    def forward():
        nonlocal log_probs, rows, safe_targets, valid, count
        flat_logits = logits.data.reshape(-1, logits.data.shape[-1])
        flat_targets = targets.reshape(-1).astype(np.int64)
        if ignore_index is not None:
            valid = flat_targets != ignore_index
        else:
            valid = np.ones_like(flat_targets, dtype=bool)
        count = max(int(valid.sum()), 1)
        safe_targets = np.where(valid, flat_targets, 0)
        rows = np.arange(flat_targets.shape[0])
        shifted = flat_logits - flat_logits.max(axis=1, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        log_probs = shifted - log_z
        picked = log_probs[rows, safe_targets]
        loss = -(picked * valid).sum() / count
        return np.asarray(loss, dtype=logits.data.dtype)

    def backward(grad):
        soft = np.exp(log_probs)
        soft[rows, safe_targets] -= 1.0
        soft *= (valid / count)[:, None]
        return ((grad * soft).reshape(logits.shape).astype(logits.dtype, copy=False),)

    return _make(forward(), (logits,), backward, forward)


def dense_cross_entropy(inputs, weight, targets, ignore_index=None):
    """``cross_entropy(matmul(inputs, weight.T), targets)``, dense."""
    logits = F.matmul(inputs, F.transpose(weight, (1, 0)))
    return _cross_entropy(logits, targets, ignore_index=ignore_index)
