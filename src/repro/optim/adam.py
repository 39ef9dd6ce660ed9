"""Adam, the one update rule (the paper trains every model with Adam at a
constant lr=1e-3, Section IV-D)."""

from __future__ import annotations

import math
from typing import Dict, Iterable, List

import numpy as np

from repro.autograd.tensor import Tensor, bump_parameter_version

__all__ = ["Adam"]


class Adam:
    """Adam with bias correction and optional L2 weight decay.

    Parameters mirror the common PyTorch defaults; the paper uses
    ``lr=0.001`` and default betas.  ``weight_decay`` adds
    ``weight_decay · p`` to the gradient before the moments, as
    ``torch.optim.Adam`` does.  Only parameters with ``requires_grad``
    are updated.

    The update runs fully in place: ``p.data``, the moment buffers and a
    per-parameter scratch buffer are reused across steps, and the bias
    corrections are folded into the step size (``lr·√bias2/bias1``) and
    the epsilon (``eps·√bias2``), so a step allocates nothing.  The
    folded form is algebraically identical to the textbook
    ``lr·m̂/(√v̂+eps)`` update::

        lr·(m/bias1) / (√(v/bias2)+eps) = (lr·√bias2/bias1) · m/(√v+eps·√bias2)
    """

    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        self.params: List[Tensor] = [p for p in params if p.requires_grad]
        if not self.params:
            raise ValueError("optimizer received no trainable parameters")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._scratch = [np.empty_like(p.data) for p in self.params]
        self._decayed = (
            [np.empty_like(p.data) for p in self.params] if weight_decay else None
        )

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        self._step += 1
        sqrt_bias2 = math.sqrt(1.0 - self.beta2 ** self._step)
        step_size = self.lr * sqrt_bias2 / (1.0 - self.beta1 ** self._step)
        folded_eps = self.eps * sqrt_bias2
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            grad = p.grad
            s = self._scratch[i]
            if self.weight_decay:
                decayed = self._decayed[i]
                np.multiply(p.data, self.weight_decay, out=decayed)
                decayed += grad
                grad = decayed
            m = self._m[i]
            v = self._v[i]
            m *= self.beta1
            np.multiply(grad, 1.0 - self.beta1, out=s)
            m += s
            v *= self.beta2
            np.multiply(grad, grad, out=s)
            s *= 1.0 - self.beta2
            v += s
            np.sqrt(v, out=s)
            s += folded_eps
            np.divide(m, s, out=s)
            s *= step_size
            p.data -= s
        bump_parameter_version()

    # ------------------------------------------------------------------
    # Resume state
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict:
        """lr, step count, and copies of the first/second moment buffers.

        The bias corrections are pure functions of the step count, so
        ``(step, m, v)`` is the complete update state: a restored Adam
        continues the moment recursions and the folded bias-correction
        schedule bitwise-identically.  The buffer arrays are copies,
        safe to archive.
        """
        return {
            "lr": float(self.lr),
            "step": int(self._step),
            "m": [m.copy() for m in self._m],
            "v": [v.copy() for v in self._v],
        }

    def check_state_dict(self, state: Dict) -> None:
        """Raise unless :meth:`load_state_dict` would accept ``state``.

        ``m`` and ``v`` must hold one array per parameter, each with its
        buffer's shape and dtype, so a checkpoint from a differently
        built model (or dtype) fails loudly instead of corrupting
        moments.
        """
        # lr and step must convert, or the load would fail half-way.
        float(state["lr"])
        int(state["step"])
        for label in ("m", "v"):
            saved, buffers = state[label], getattr(self, f"_{label}")
            if len(saved) != len(buffers):
                raise ValueError(
                    f"optimizer state mismatch: checkpoint has {len(saved)} "
                    f"{label} buffers, optimizer has {len(buffers)}"
                )
            for i, (buf, value) in enumerate(zip(buffers, saved)):
                value = np.asarray(value)
                if value.shape != buf.shape or value.dtype != buf.dtype:
                    raise ValueError(
                        f"optimizer {label} buffer {i} mismatch: checkpoint has "
                        f"{value.dtype}{value.shape}, optimizer has {buf.dtype}{buf.shape}"
                    )

    def load_state_dict(self, state: Dict) -> None:
        """Copy a :meth:`state_dict` into place after :meth:`check_state_dict`."""
        self.check_state_dict(state)
        self.lr = float(state["lr"])
        for buf, value in zip([*self._m, *self._v], [*state["m"], *state["v"]]):
            np.copyto(buf, value)
        self._step = int(state["step"])
