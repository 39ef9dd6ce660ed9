"""Activation modules (thin wrappers over functional ops).

Shapes and dtype contract: elementwise over any floating input; output
and gradients keep the input's shape and dtype.  :class:`GELU` is the
tanh approximation used by the paper's FFN, with cubes expanded to
multiplies and intermediates folded in place on both passes (see
:func:`repro.autograd.functional.gelu`); the others are textbook.
"""

from __future__ import annotations

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.nn.module import Module

__all__ = ["GELU", "ReLU", "Tanh", "Sigmoid"]


class GELU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.gelu(x)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.tanh(x)


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.sigmoid(x)
