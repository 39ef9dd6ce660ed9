"""Neural-network modules built on the repro autograd engine.

The package mirrors the ``torch.nn`` layout at miniature scale:
:class:`Module`/:class:`Parameter` provide attribute-based parameter
registration (:mod:`repro.nn.module`), the concrete layers live in one
file each, and :mod:`repro.nn.init` owns weight initialization and the
parameter dtype (float64 unless a model names float32, the fast path).
:mod:`repro.nn.workspace` is the shared per-step compute workspace that
the hot paths (fused Q/K/V attention, the spectral mixer's FFT scratch,
dropout mask draws) allocate through; ``pydoc repro.nn.<module>`` on
any submodule documents its shapes and dtype contract.
"""

from repro.nn.module import Module, Parameter, ModuleList
from repro.nn.linear import Linear
from repro.nn.embedding import Embedding
from repro.nn.normalization import LayerNorm
from repro.nn.dropout import Dropout
from repro.nn.activation import GELU, ReLU, Tanh, Sigmoid
from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.recurrent import GRU
from repro.nn.conv import HorizontalConv, VerticalConv
from repro.nn import init
from repro.nn import workspace

__all__ = [
    "Module",
    "Parameter",
    "ModuleList",
    "Linear",
    "Embedding",
    "LayerNorm",
    "Dropout",
    "GELU",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "MultiHeadSelfAttention",
    "GRU",
    "HorizontalConv",
    "VerticalConv",
    "init",
    "workspace",
]
