"""Reverse-mode automatic differentiation on numpy arrays.

This subpackage is the substrate that replaces PyTorch in this
reproduction.  It provides:

- :class:`~repro.autograd.tensor.Tensor`: an ndarray wrapper that records
  a computation graph and supports broadcasting-aware backpropagation.
- :mod:`~repro.autograd.functional`: the op library (arithmetic, matmul,
  reductions, activations, softmax/cross-entropy, gather/scatter, ...).
- :mod:`~repro.autograd.spectral`: the FFT -> complex filter ->
  inverse-FFT operator behind every filter-mixer block, with an
  analytically derived backward pass.
- :mod:`~repro.autograd.workspace`: the shared per-step compute
  workspace (scratch buffers, derived-constant caches, parameter-keyed
  caches) that the hot-path ops draw their working memory from.
- :mod:`~repro.autograd.graph`: static-graph tape capture & replay —
  records one dynamic training step into a :class:`~repro.autograd.graph.Tape`
  and replays it as a flat loop of kernel calls, bitwise-identical to
  the dynamic engine (the :class:`~repro.autograd.graph.TapeExecutor`
  drives capture/replay/fallback for the trainer).
- :mod:`~repro.autograd.gradcheck`: finite-difference gradient checking
  used throughout the test suite.
"""

from repro.autograd.tensor import (
    Tensor,
    no_grad,
    is_grad_enabled,
    parameter_version,
    bump_parameter_version,
)
from repro.autograd import workspace
from repro.autograd import functional
from repro.autograd.spectral import spectral_filter
from repro.autograd.gradcheck import gradcheck
from repro.autograd.graph import (
    GraphCaptureError,
    Tape,
    TapeExecutor,
    capture,
    is_capturing,
)

__all__ = [
    "GraphCaptureError",
    "Tape",
    "TapeExecutor",
    "capture",
    "is_capturing",
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "parameter_version",
    "bump_parameter_version",
    "functional",
    "workspace",
    "spectral_filter",
    "gradcheck",
]
