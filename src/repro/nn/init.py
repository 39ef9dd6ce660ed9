"""Weight initialization helpers and the parameter dtype.

All initializers take an explicit ``numpy.random.Generator`` so model
construction is fully deterministic given a seed.

Dtype contract
--------------
Every initializer accepts a ``dtype`` keyword resolved through
:func:`resolve_dtype`: ``None`` (the default) means float64, a constant
that keeps seed numerics bit-for-bit unchanged.  A float32 model names
its dtype (``SlimeConfig(dtype=...)``, ``build_baseline(dtype=...)``).
Random draws always consume the *float64* generator stream and are cast
afterwards — a float32 model is therefore the rounded image of the
float64 model with the same seed, which is what lets the test suite
compare metrics across dtypes.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "normal",
    "uniform",
    "xavier_uniform",
    "xavier_normal",
    "zeros",
    "ones",
    "resolve_dtype",
]

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def resolve_dtype(dtype=None) -> np.dtype:
    """Validate ``dtype`` (float32/float64); ``None`` means float64."""
    if dtype is None:
        return np.dtype(np.float64)
    dtype = np.dtype(dtype)
    if dtype not in _FLOAT_DTYPES:
        raise ValueError(f"parameter dtype must be float32 or float64, got {dtype}")
    return dtype


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
