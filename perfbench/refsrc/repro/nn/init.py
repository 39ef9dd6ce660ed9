"""Weight initialization helpers and the parameter-dtype knob.

All initializers take an explicit ``numpy.random.Generator`` so model
construction is fully deterministic given a seed.

Dtype contract
--------------
Every initializer accepts a ``dtype`` keyword resolved through
:func:`resolve_dtype`: passing ``None`` (the default) falls back to the
process-wide default parameter dtype, which is **float64** so seed
numerics stay bit-for-bit unchanged.  Random draws always consume the
*float64* generator stream and are cast afterwards — a float32 model is
therefore the rounded image of the float64 model with the same seed,
which is what lets the test suite compare metrics across dtypes.

Use :func:`set_default_dtype` (or the :func:`default_dtype` context
manager) to flip whole-model construction to float32 without threading
the keyword through every constructor.
"""

from __future__ import annotations

import contextlib

import numpy as np

__all__ = [
    "normal",
    "uniform",
    "xavier_uniform",
    "xavier_normal",
    "zeros",
    "ones",
    "resolve_dtype",
    "get_default_dtype",
    "set_default_dtype",
    "default_dtype",
]

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

_DEFAULT_PARAM_DTYPE = np.dtype(np.float64)


def resolve_dtype(dtype=None) -> np.dtype:
    """Validate ``dtype`` (float32/float64), defaulting to the global knob."""
    if dtype is None:
        return _DEFAULT_PARAM_DTYPE
    dtype = np.dtype(dtype)
    if dtype not in _FLOAT_DTYPES:
        raise ValueError(f"parameter dtype must be float32 or float64, got {dtype}")
    return dtype


def get_default_dtype() -> np.dtype:
    """The dtype new parameters are created with when none is given."""
    return _DEFAULT_PARAM_DTYPE


def set_default_dtype(dtype) -> np.dtype:
    """Set the process-wide default parameter dtype; returns the old one."""
    global _DEFAULT_PARAM_DTYPE
    previous = _DEFAULT_PARAM_DTYPE
    _DEFAULT_PARAM_DTYPE = resolve_dtype(dtype)
    return previous


@contextlib.contextmanager
def default_dtype(dtype):
    """Scope the default parameter dtype, e.g. for one model build."""
    previous = set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(previous)


def normal(rng: np.random.Generator, shape, std: float = 0.02, dtype=None) -> np.ndarray:
    """Truncated-free normal init, the default for embeddings (BERT-style)."""
    return rng.normal(0.0, std, size=shape).astype(resolve_dtype(dtype), copy=False)


def uniform(
    rng: np.random.Generator, shape, low: float = -0.05, high: float = 0.05, dtype=None
) -> np.ndarray:
    return rng.uniform(low, high, size=shape).astype(resolve_dtype(dtype), copy=False)


def _fans(shape) -> tuple[int, int]:
    if len(shape) < 2:
        return shape[0], shape[0]
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    return shape[0] * receptive, shape[1] * receptive


def xavier_uniform(rng: np.random.Generator, shape, dtype=None) -> np.ndarray:
    fan_in, fan_out = _fans(shape)
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(resolve_dtype(dtype), copy=False)


def xavier_normal(rng: np.random.Generator, shape, dtype=None) -> np.ndarray:
    fan_in, fan_out = _fans(shape)
    std = np.sqrt(2.0 / (fan_in + fan_out))
    return rng.normal(0.0, std, size=shape).astype(resolve_dtype(dtype), copy=False)


def zeros(shape, dtype=None) -> np.ndarray:
    return np.zeros(shape, dtype=resolve_dtype(dtype))


def ones(shape, dtype=None) -> np.ndarray:
    return np.ones(shape, dtype=resolve_dtype(dtype))
