"""Shared per-step compute workspace: scratch buffers and derived constants.

One optimizer step of every model in this repo runs over a single
``(B, N, d)`` geometry, yet before this module existed each hot-path op
re-derived its own working memory on every call: the spectral mixer
allocated a fresh ``(B, M, d)`` complex product buffer per layer per
encode, dropout drew a fresh float64 array per site, and attention
rebuilt its block mask and re-concatenated nothing (it ran three
separate Q/K/V GEMMs instead).  The :class:`StepWorkspace` gives those
ops one place to park reusable memory, keyed by ``(tag, shape, dtype)``,
so all ``L`` layers of a step — and all steps of a run — share one set
of scratch arrays per geometry.

Two kinds of state live here, with two different contracts:

``scratch(tag, shape, dtype)``
    A *transient* buffer.  The caller may use it only until the next
    ``scratch`` call with the same key; it must never be stored in an
    autograd closure or returned to a caller.  Hot-path ops write
    elementwise products into these (``np.multiply(..., out=buf)``)
    instead of allocating, which also keeps the pages warm.

``cached(key, build)``
    An *immutable* derived constant (causal masks, index rows, mirror
    weights).  Built once per key, returned read-only where possible.
    Never invalidated — entries are pure functions of their key.

Values derived from parameter payloads are not cached here: attention
re-concatenates its Q/K/V weight on every forward (microseconds against
the GEMM it feeds), so an in-place weight edit is seen by the next call.

The workspace is **thread-local** (one per thread via
:func:`get_workspace`): scratch reuse is only safe when at most one op
is mid-flight per buffer, which a per-thread instance guarantees for
the single-threaded training loop without making concurrent evaluation
threads unsafe.

Layering: this module imports nothing else from ``repro``; both the
autograd op library and the ``repro.nn`` stack build on it.  The
public, documented entry point is :mod:`repro.nn.workspace`.
"""

from __future__ import annotations

import copy
import threading
from typing import Any, Callable, Dict, Tuple

import numpy as np

__all__ = [
    "StepWorkspace",
    "get_workspace",
    "reset_workspace",
    "generator_state",
    "check_generator_state",
    "set_generator_state",
]


class StepWorkspace:
    """Reusable per-geometry buffers for one training/eval step.

    See the module docstring for the ``scratch`` vs ``cached``
    contracts.  ``hits``/``misses`` count scratch lookups and are
    exposed for tests and for the ``docs/PERFORMANCE.md`` workflow.
    """

    __slots__ = ("_scratch", "_cached", "hits", "misses")

    def __init__(self) -> None:
        self._scratch: Dict[Tuple, np.ndarray] = {}
        self._cached: Dict[Tuple, Any] = {}
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def scratch(self, tag: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """Return a reusable uninitialized buffer for ``(tag, shape, dtype)``.

        The buffer is valid only until the next ``scratch`` call with
        the same key.  Callers must fully overwrite it before reading
        and must never capture it in a backward closure — anything that
        outlives the current op needs its own allocation.
        """
        key = (tag, shape, np.dtype(dtype))
        buf = self._scratch.get(key)
        if buf is None:
            buf = np.empty(shape, dtype=key[2])
            self._scratch[key] = buf
            self.misses += 1
        else:
            self.hits += 1
        return buf

    def cached(self, key: Tuple, build: Callable[[], Any]) -> Any:
        """Return the derived constant for ``key``, building it once.

        ``build`` must be a pure function of ``key``; entries are never
        invalidated.  Arrays returned from here should be treated as
        read-only (builders are encouraged to ``setflags(write=False)``).
        """
        value = self._cached.get(key)
        if value is None:
            value = build()
            self._cached[key] = value
        return value

    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop every buffer and cache entry (frees the memory)."""
        self._scratch.clear()
        self._cached.clear()
        self.hits = 0
        self.misses = 0

    def nbytes(self) -> int:
        """Total bytes currently parked in scratch buffers."""
        return int(sum(buf.nbytes for buf in self._scratch.values()))

    def __repr__(self) -> str:
        return (
            f"StepWorkspace(scratch={len(self._scratch)}, cached={len(self._cached)}, "
            f"hits={self.hits}, misses={self.misses}, nbytes={self.nbytes()})"
        )


# ----------------------------------------------------------------------
# Thread-local workspace instance
# ----------------------------------------------------------------------

_tls = threading.local()


def get_workspace() -> StepWorkspace:
    """The calling thread's shared :class:`StepWorkspace` (created lazily)."""
    ws = getattr(_tls, "workspace", None)
    if ws is None:
        ws = StepWorkspace()
        _tls.workspace = ws
    return ws


def reset_workspace() -> StepWorkspace:
    """Replace the calling thread's workspace with a fresh, empty one."""
    ws = StepWorkspace()
    _tls.workspace = ws
    return ws


# ----------------------------------------------------------------------
# Random-stream capture: the RNG half of the run-state contract
# ----------------------------------------------------------------------
#
# Every stochastic stream in a training run is a ``numpy.random.Generator``
# (dropout layers, augmentation/noise/mask rngs on the baselines, the
# batch iterator's shuffle stream, the negative sampler).  Bitwise
# crash/resume requires capturing each generator's *bit state* — the
# exact position in its PCG64 sequence — not its seed: a seed only
# reproduces the stream from the start, while a checkpoint lands
# mid-stream.  These two helpers define the capture format used by
# ``Module.rng_state_dict`` and the trainer's run-state archive.


def generator_state(gen: np.random.Generator) -> Dict[str, Any]:
    """Deep-copied, JSON-serializable snapshot of a generator's bit state.

    The returned dict is numpy's own ``bit_generator.state`` payload
    (algorithm name + integer state words; PCG64 state words are 128-bit
    Python ints, which JSON carries exactly).  Restoring it with
    :func:`set_generator_state` resumes the stream at the captured
    position, so subsequent draws are bitwise-identical to a run that
    never stopped.
    """
    return copy.deepcopy(gen.bit_generator.state)


def check_generator_state(gen: np.random.Generator, state: Dict[str, Any]) -> None:
    """Raise what :func:`set_generator_state` would, leaving ``gen`` as is.

    The snapshot is loaded into a throwaway bit generator of ``gen``'s
    algorithm.
    """
    type(gen.bit_generator)(0).state = state


def set_generator_state(gen: np.random.Generator, state: Dict[str, Any]) -> None:
    """Restore a :func:`generator_state` snapshot into ``gen`` in place.

    Raises ``ValueError`` (from numpy) when the snapshot belongs to a
    different bit-generator algorithm than ``gen`` uses.
    """
    gen.bit_generator.state = copy.deepcopy(state)
