"""Static-graph tape capture & replay executor.

The dynamic engine re-walks every module ``__call__`` and re-dispatches
every autograd node each step, even though the ``(B, N, d)`` step
geometry is fixed for a whole training run.  This module records one
dynamic step into a :class:`Tape` — the execution-ordered list of op
*replay closures* plus the topologically-sorted backward graph — and
replays it as a flat loop of kernel calls, skipping module dispatch,
graph construction and Python attribute traffic entirely.

Design contract (see ``docs/ARCHITECTURE.md`` for the long form):

* **Capture is a dynamic step.**  Inside :func:`capture`, the model's
  loss runs through the ordinary op library; every op appends a replay
  closure via :func:`record_node` (the ``_make`` chokepoint in
  :mod:`repro.autograd.functional` does this automatically).  An op
  built without a replay closure under an active capture raises
  :class:`GraphCaptureError` naming the op — capture *validates*
  replay-safety at record time instead of producing silently wrong
  numbers later.

* **Replay rebinds, closures read fresh.**  A replay closure re-runs
  the op's forward numpy expressions, reading parent payloads through
  ``tensor.data`` *at call time*, and the executor rebinds the output
  tensor's ``data`` to the result.  Because replay runs literally the
  same numpy expressions as capture, bitwise equality with the dynamic
  engine is structural, not incidental.

* **Backward order is frozen.**  The tape stores the topological order
  :meth:`~repro.autograd.tensor.Tensor.backward` would compute, and
  replays the shared ``_backward_over`` sweep against it — identical
  accumulation order, identical float bit patterns.

* **RNG draws stay live.**  Stochastic closures (dropout masks,
  sampled-softmax negative draws) re-draw from the same
  ``numpy.random.Generator`` objects on every replay, consuming the
  stream exactly as the dynamic step would.  Restoring generator state
  on resume mutates the bit state of those same objects in place, so a
  re-captured tape replays the resumed stream bitwise.

* **Host computations are recorded too.**  Step-dependent numpy work
  outside the op library (padding masks, view stacking) registers an
  in-place recompute via :func:`record_host` so arrays captured by op
  closures stay fresh.

Invalidation rules enforced by :class:`TapeExecutor` per step:

====================================  =================================
Divergence                            Action
====================================  =================================
input shape/dtype/None-ness mismatch  dynamic fallback for that step
(e.g. ragged final batch)             only; tape kept
parameter payload rebound             tape invalidated, re-captured
(``load_state_dict``, ``Module.to``)
``model.training`` flipped            tape invalidated, re-captured
``GraphCaptureError`` during capture  permanent dynamic fallback,
(e.g. ``noise_eps > 0`` paths)        reason logged once
====================================  =================================

Layering: this module imports only :mod:`repro.autograd.tensor` (the
op library imports *this* module, never the reverse), so the import
chain ``functional → graph → tensor`` stays acyclic.
"""

from __future__ import annotations

import contextlib
import dataclasses
import logging
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.autograd.tensor import Tensor, _backward_over, _topo_sort

__all__ = [
    "GraphCaptureError",
    "Tape",
    "TapeExecutor",
    "StepResult",
    "capture",
    "is_capturing",
    "record_node",
    "record_host",
]

logger = logging.getLogger(__name__)

_tls = threading.local()


class GraphCaptureError(RuntimeError):
    """An op that cannot be replayed was built under an active capture."""


def _active() -> Optional["Tape"]:
    """The calling thread's in-progress capture, or None (hot-path helper)."""
    return getattr(_tls, "capture", None)


def is_capturing() -> bool:
    """Whether the calling thread is inside a :func:`capture` context."""
    return getattr(_tls, "capture", None) is not None


def record_node(
    outs,
    replay: Callable[[], Any],
    name: Optional[str] = None,
) -> None:
    """Record an op into the active capture (no-op outside capture).

    ``outs`` is the op's output :class:`Tensor` or a sequence of sibling
    output tensors; ``replay`` re-runs the forward and returns the new
    payload array (or a tuple of arrays, one per sibling).  The op
    library's ``_make`` chokepoint calls this for every node; only ops
    built outside ``_make`` (multi-output fused kernels) call it
    directly.
    """
    tape = getattr(_tls, "capture", None)
    if tape is None:
        return
    if isinstance(outs, Tensor):
        outs = (outs,)
    tape._entries.append((tuple(outs), replay, name))


def record_host(replay: Callable[[], Any], name: Optional[str] = None) -> None:
    """Record a host-side numpy computation into the active capture.

    For step-dependent work outside the op library whose *result array
    objects* are captured by downstream op closures (padding masks, the
    stacked multi-view input).  ``replay`` must recompute **in place**
    into the same array objects; its return value is ignored.
    """
    tape = getattr(_tls, "capture", None)
    if tape is None:
        return
    tape._entries.append(((), replay, name))


class Tape:
    """One captured step: forward replay closures + frozen backward order."""

    __slots__ = (
        "_entries",
        "topo",
        "root",
        "grad_params",
        "param_bindings",
        "signature",
    )

    def __init__(self) -> None:
        # (outs, replay, name) triples in execution order.  An empty
        # ``outs`` marks a host entry (in-place recompute, no rebind).
        self._entries: List[Tuple[Tuple[Tensor, ...], Callable, Optional[str]]] = []
        self.topo: List[Tensor] = []
        self.root: Optional[Tensor] = None
        self.grad_params: List[Tensor] = []
        self.param_bindings: List[Tuple[Tensor, np.ndarray]] = []
        self.signature: Tuple = ()

    def __len__(self) -> int:
        return len(self._entries)

    def finalize(self, root: Tensor, params: Sequence[Tensor]) -> None:
        """Freeze the backward order and the validity snapshot.

        ``params`` is the model's full parameter list; the bindings
        snapshot (parameter → payload array identity) detects rebinds
        from ``load_state_dict``/``Module.to``, and ``grad_params`` —
        the parameters actually reachable in this graph — is what the
        executor seeds grad buffers for (matching exactly the set the
        dynamic sweep would touch).
        """
        self.root = root
        self.topo = _topo_sort(root)
        self.grad_params = [n for n in self.topo if n.requires_grad]
        self.param_bindings = [(p, p.data) for p in params]

    def replay(self) -> Tensor:
        """Re-run the captured step as a flat loop of kernel calls."""
        for outs, replay, _name in self._entries:
            result = replay()
            if len(outs) == 1:
                outs[0].data = result
            elif outs:
                for tensor, arr in zip(outs, result):
                    tensor.data = arr
        return self.root

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run the frozen-order backward sweep from the root."""
        root = self.root
        if grad is None:
            grad = np.ones_like(root.data)
        _backward_over(self.topo, root, grad)

    def bindings_valid(self) -> bool:
        """Whether every captured parameter still holds the same payload."""
        return all(p.data is data for p, data in self.param_bindings)


@contextlib.contextmanager
def capture():
    """Record one dynamic step into a fresh :class:`Tape`.

    Usage::

        with capture() as tape:
            loss = model.loss(batch)
        tape.finalize(loss, list(model.parameters()))

    Single-threaded by construction (the capture handle is
    thread-local); nesting raises.
    """
    if getattr(_tls, "capture", None) is not None:
        raise RuntimeError("nested graph capture is not supported")
    tape = Tape()
    _tls.capture = tape
    try:
        yield tape
    finally:
        _tls.capture = None


def _batch_signature(batch) -> Tuple:
    """Shape/dtype/None-ness fingerprint of a step's input batch."""
    sig = []
    for field in dataclasses.fields(batch):
        value = getattr(batch, field.name)
        if value is None:
            sig.append((field.name, None))
        else:
            arr = np.asarray(value)
            sig.append((field.name, arr.shape, arr.dtype))
    return tuple(sig)


class StepResult:
    """One executor step: the loss value plus a mode-aware backward."""

    __slots__ = ("mode", "loss", "_executor", "_root")

    def __init__(self, mode: str, root: Tensor, executor: "TapeExecutor") -> None:
        self.mode = mode  # "capture" | "replay" | "dynamic"
        self.loss = float(root.data)
        self._root = root
        self._executor = executor

    def backward(self) -> None:
        if self.mode == "dynamic":
            self._root.backward()
        else:
            self._executor._seed_grad_buffers()
            self._executor._tape.backward()


class TapeExecutor:
    """Drives a model's training steps through capture/replay.

    The executor owns three kinds of persistent state:

    * **Input buffers** — one owned copy of each batch array, refreshed
      with ``np.copyto`` per step, so the index/target arrays baked into
      op closures at capture time stay the *same objects* with fresh
      contents on every replay.
    * **Grad buffers** — one zeroed accumulator per reachable parameter,
      re-seeded (``fill(0)``) before every backward instead of
      re-allocated, installed as *owned* buffers so the in-place
      ``_accumulate_grad`` path fires (and ``clip_grad_norm`` scales in
      place, preserving buffer identity across steps).
    * **The tape itself**, plus its validity snapshot (see the module
      docstring's invalidation table).

    Each step's objective is ``model.loss`` on the (buffer-backed) batch.
    """

    def __init__(self, model) -> None:
        self.model = model
        self._tape: Optional[Tape] = None
        self._grad_bufs: Dict[int, np.ndarray] = {}
        self._input_bufs: Optional[Dict[str, Optional[np.ndarray]]] = None
        self._input_sig: Tuple = ()
        self.disabled_reason: Optional[str] = None
        self.captures = 0
        self.replays = 0
        self.recaptures = 0
        self.fallback_steps = 0
        self._warned: set = set()

    # ------------------------------------------------------------------
    def step(self, batch) -> StepResult:
        """Run one training forward: replay when valid, else (re)capture.

        Falls back to a plain dynamic step — same numbers, no tape —
        when the batch geometry diverges (tape kept) or when capture
        itself proved the graph replay-unsafe (tape disabled for the
        run, reason logged once).
        """
        if self.disabled_reason is not None:
            self.fallback_steps += 1
            return StepResult("dynamic", self.model.loss(batch), self)

        signature = _batch_signature(batch)
        if self._tape is not None:
            if signature != self._input_sig:
                self._warn_once(
                    "geometry",
                    "static-graph: batch geometry diverged from the captured "
                    f"tape ({signature} != {self._input_sig}); running this "
                    "step dynamically (tape kept)",
                )
                self.fallback_steps += 1
                return StepResult("dynamic", self.model.loss(batch), self)
            reason = self._invalid_reason()
            if reason is not None:
                self._warn_once(
                    f"recapture:{reason}",
                    f"static-graph: tape invalidated ({reason}); re-capturing",
                )
                self._tape = None
                self.recaptures += 1

        if self._tape is None:
            return self._capture_step(batch, signature)

        self._bind_inputs(batch)
        root = self._tape.replay()
        self.replays += 1
        return StepResult("replay", root, self)

    # ------------------------------------------------------------------
    def _invalid_reason(self) -> Optional[str]:
        tape = self._tape
        if not tape.bindings_valid():
            return "parameter payload rebound"
        if getattr(self.model, "training", True) != self._captured_training:
            return "model.training changed"
        return None

    def _capture_step(self, batch, signature: Tuple) -> StepResult:
        self._input_bufs = None  # rebuild buffers for the new geometry
        buffered = self._bind_inputs(batch)
        self._input_sig = signature
        self._captured_training = getattr(self.model, "training", True)
        # The capture may die mid-loss (an unsafe op raising
        # GraphCaptureError) *after* earlier ops consumed RNG draws;
        # snapshot the model's streams so the dynamic re-run below
        # consumes them exactly as a never-captured run would.
        rng_snapshot = (
            self.model.rng_state_dict()
            if callable(getattr(self.model, "rng_state_dict", None))
            else None
        )
        try:
            with capture() as tape:
                root = self.model.loss(buffered)
        except GraphCaptureError as exc:
            self.disabled_reason = str(exc)
            logger.warning(
                "static-graph: capture failed (%s); running dynamically "
                "for the rest of the run",
                exc,
            )
            self.fallback_steps += 1
            if rng_snapshot is not None:
                self.model.load_rng_state_dict(rng_snapshot)
            return StepResult("dynamic", self.model.loss(buffered), self)
        tape.finalize(root, list(self.model.parameters()))
        self._tape = tape
        self.captures += 1
        return StepResult("capture", root, self)

    #: model.training at capture time (class default until first capture).
    _captured_training = True

    # ------------------------------------------------------------------
    def _bind_inputs(self, batch):
        """Copy the batch into executor-owned buffers, return a buffer view."""
        if self._input_bufs is None:
            bufs: Dict[str, Optional[np.ndarray]] = {}
            for field in dataclasses.fields(batch):
                value = getattr(batch, field.name)
                bufs[field.name] = None if value is None else np.array(value)
            self._input_bufs = bufs
        else:
            for name, buf in self._input_bufs.items():
                if buf is not None:
                    np.copyto(buf, getattr(batch, name))
        return dataclasses.replace(batch, **self._input_bufs)

    def _seed_grad_buffers(self) -> None:
        """Install zeroed, executor-owned grad accumulators on the params.

        Reuses the persistent buffer when shape and dtype still match
        (``load_state_dict(cast=...)`` changes them — then we
        re-allocate); writes the ``_grad``/``_grad_owned`` slots
        directly because the public ``grad`` setter deliberately marks
        assigned buffers as borrowed.
        """
        for p in self._tape.grad_params:
            buf = self._grad_bufs.get(id(p))
            if buf is None or buf.shape != p.data.shape or buf.dtype != p.data.dtype:
                buf = np.zeros_like(p.data)
                self._grad_bufs[id(p)] = buf
            else:
                buf.fill(0.0)
            p._grad = buf
            p._grad_owned = True

    def _warn_once(self, key: str, message: str) -> None:
        if key not in self._warned:
            self._warned.add(key)
            logger.warning(message)

    def stats(self) -> Dict[str, Any]:
        """Counters for logging/tests: captures, replays, fallbacks."""
        return {
            "captures": self.captures,
            "replays": self.replays,
            "recaptures": self.recaptures,
            "fallback_steps": self.fallback_steps,
            "tape_len": 0 if self._tape is None else len(self._tape),
            "disabled_reason": self.disabled_reason,
        }
