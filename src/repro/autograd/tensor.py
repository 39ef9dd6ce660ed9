"""Core Tensor type with reverse-mode automatic differentiation.

The design follows the classic tape-free approach: every differentiable
operation builds a new :class:`Tensor` holding references to its parent
tensors and a closure that propagates the incoming gradient to those
parents.  Calling :meth:`Tensor.backward` topologically sorts the graph
and runs the closures once each.

Gradients are plain ``numpy.ndarray`` objects accumulated into
``Tensor.grad``.  Broadcasting is fully supported: op implementations in
:mod:`repro.autograd.functional` reduce gradients back to the parent
shape with :func:`unbroadcast`.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "unbroadcast",
    "as_tensor",
    "parameter_version",
    "bump_parameter_version",
]

_grad_state = threading.local()

#: Monotonic counter bumped whenever parameter payloads are mutated in
#: place (optimizer steps, checkpoint restores).  Consumers that cache
#: values derived from parameter data — the serving tier, through
#: ``SequentialEncoderBase.inference_version`` — key their caches on
#: this counter to stay coherent.
_parameter_version = 0


def parameter_version() -> int:
    """Current parameter-mutation epoch (see :func:`bump_parameter_version`)."""
    return _parameter_version


def bump_parameter_version() -> int:
    """Invalidate parameter-derived caches after an in-place update."""
    global _parameter_version
    _parameter_version += 1
    return _parameter_version


def is_grad_enabled() -> bool:
    """Return True when operations should record the autograd graph."""
    return getattr(_grad_state, "enabled", True)


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording (inference mode)."""
    previous = is_grad_enabled()
    _grad_state.enabled = False
    try:
        yield
    finally:
        _grad_state.enabled = previous


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting.

    Broadcasting can (a) prepend new axes and (b) stretch size-1 axes.
    The adjoint of both is summation over the broadcast axes.
    """
    if grad.shape == shape:
        return grad
    # Remove prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were stretched from size 1.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """An ndarray with an optional gradient and autograd history.

    Parameters
    ----------
    data:
        Array-like payload.  Arrays keep their dtype; other data becomes
        what ``np.asarray`` makes of it (float64 for python floats, a
        numpy float scalar keeps its dtype), with integral data widened
        to int64 (index tensors).  A python scalar in a binary op takes
        the other operand's dtype instead (NEP 50,
        ``functional._operands``).
    requires_grad:
        Whether gradients should be accumulated into this tensor.
    """

    __slots__ = (
        "data",
        "_grad",
        "requires_grad",
        "_backward",
        "_parents",
        "name",
        "_grad_owned",
    )

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        if not isinstance(data, np.ndarray):
            data = np.asarray(data)
            if data.dtype.kind in "iu":
                data = data.astype(np.int64, copy=False)
        if requires_grad and data.dtype.kind != "f":
            raise TypeError("only floating tensors can require gradients")
        self.data = data
        self._grad: Optional[np.ndarray] = None
        self._grad_owned = False
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self._parents = _parents
        self._backward = _backward
        self.name = name

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def grad(self) -> Optional[np.ndarray]:
        return self._grad

    @grad.setter
    def grad(self, value: Optional[np.ndarray]) -> None:
        # Externally assigned buffers may be shared with the caller, so
        # in-place accumulation must not touch them (see _accumulate_grad).
        self._grad = value
        self._grad_owned = False

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        label = f" '{self.name}'" if self.name else ""
        return f"Tensor{label}(shape={self.shape}, dtype={self.dtype}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying ndarray (shared memory, not a copy)."""
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(
                f"item() requires a 1-element tensor, got shape {self.shape}"
            )
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """Return a view of this tensor cut off from the autograd graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self._grad = None
        self._grad_owned = False

    # ------------------------------------------------------------------
    # Autograd machinery
    # ------------------------------------------------------------------
    def _accumulate_grad(self, grad: np.ndarray) -> None:
        """Accumulate ``grad`` into ``self.grad``, in place when safe.

        Buffer ownership tracking: ``_grad_owned`` is True only when
        ``self.grad`` is an array this tensor allocated itself (a copy
        or the result of a ``+``).  Owned buffers are updated with
        ``+=``; borrowed buffers (references handed out by backward
        closures, which may be shared with sibling tensors or graph
        internals) are never mutated — accumulation into them allocates
        once and takes ownership of the result.
        """
        if grad.dtype != self.data.dtype:
            grad = grad.astype(self.data.dtype, copy=False)
        if self._grad is None:
            if grad.base is not None or grad is self.data:
                self._grad = grad.copy()
                self._grad_owned = True
            else:
                self._grad = grad
                self._grad_owned = False
        elif self._grad_owned and self._grad.shape == grad.shape:
            self._grad += grad
        else:
            self._grad = self._grad + grad
            self._grad_owned = True

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if not self.requires_grad and self._backward is None:
            raise RuntimeError("tensor does not require grad and has no graph")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"grad shape {grad.shape} does not match tensor shape {self.data.shape}"
                )
        _backward_over(_topo_sort(self), self, grad)

    # ------------------------------------------------------------------
    # Operator sugar (implementations live in functional.py)
    # ------------------------------------------------------------------
    def __add__(self, other):
        from repro.autograd import functional as F

        return F.add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        from repro.autograd import functional as F

        return F.sub(self, other)

    def __rsub__(self, other):
        from repro.autograd import functional as F

        return F.sub(other, self)

    def __mul__(self, other):
        from repro.autograd import functional as F

        return F.mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        from repro.autograd import functional as F

        return F.div(self, other)

    def __rtruediv__(self, other):
        from repro.autograd import functional as F

        return F.div(other, self)

    def __neg__(self):
        from repro.autograd import functional as F

        return F.neg(self)

    def __pow__(self, exponent):
        from repro.autograd import functional as F

        return F.pow(self, exponent)

    def __matmul__(self, other):
        from repro.autograd import functional as F

        return F.matmul(self, other)

    def __getitem__(self, index):
        from repro.autograd import functional as F

        return F.getitem(self, index)

    # Convenience methods mirroring the functional API -----------------
    def reshape(self, *shape):
        from repro.autograd import functional as F

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return F.reshape(self, shape)

    def transpose(self, *axes):
        from repro.autograd import functional as F

        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return F.transpose(self, axes if axes else None)

    def sum(self, axis=None, keepdims=False):
        from repro.autograd import functional as F

        return F.sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        from repro.autograd import functional as F

        return F.mean(self, axis=axis, keepdims=keepdims)

    def exp(self):
        from repro.autograd import functional as F

        return F.exp(self)

    def log(self):
        from repro.autograd import functional as F

        return F.log(self)

    def sqrt(self):
        from repro.autograd import functional as F

        return F.sqrt(self)

    def tanh(self):
        from repro.autograd import functional as F

        return F.tanh(self)

    def sigmoid(self):
        from repro.autograd import functional as F

        return F.sigmoid(self)

    def relu(self):
        from repro.autograd import functional as F

        return F.relu(self)


def _topo_sort(root: "Tensor") -> list:
    """Topologically sort ``root``'s autograd graph (parents first).

    Iterative DFS so deep chains (e.g. unrolled GRUs) never hit the
    recursion limit.  Shared between the dynamic :meth:`Tensor.backward`
    and the static-graph tape, which captures this list once and replays
    :func:`_backward_over` against it — keeping the accumulation order,
    and therefore the float bit patterns, identical across both modes.
    """
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[Tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return topo


def _backward_over(topo: list, root: "Tensor", grad: np.ndarray) -> None:
    """Run the reverse sweep over a pre-built topological order.

    In-flight gradient buffers: ``owned`` holds the ids of nodes whose
    dict buffer was allocated by this loop (via ``+``) and is therefore
    safe to update in place; first contributions are borrowed references
    from backward closures and must not be mutated, because closures may
    hand the same array to several parents (e.g. ``add`` returns its
    incoming grad twice).
    """
    grads: dict[int, np.ndarray] = {id(root): grad}
    owned: set[int] = set()
    for node in reversed(topo):
        node_grad = grads.pop(id(node), None)
        if node_grad is None:
            continue
        owned.discard(id(node))
        if node.requires_grad:
            node._accumulate_grad(node_grad)
        if node._backward is None:
            continue
        parent_grads = node._backward(node_grad)
        if parent_grads is None:
            continue
        for parent, pgrad in zip(node._parents, parent_grads):
            if pgrad is None:
                continue
            if not (parent.requires_grad or parent._backward is not None):
                continue
            pid = id(parent)
            existing = grads.get(pid)
            if existing is None:
                grads[pid] = pgrad
            elif (
                pid in owned
                # 0-d arithmetic returns immutable numpy scalars, for
                # which ``+=`` would rebind the local and silently
                # drop the contribution — only true ndarrays qualify.
                and type(existing) is np.ndarray
                and existing.shape == pgrad.shape
                and existing.dtype == np.result_type(existing.dtype, pgrad.dtype)
            ):
                existing += pgrad
            else:
                grads[pid] = existing + pgrad
                owned.add(pid)


TensorLike = Union[Tensor, np.ndarray, float, int, Sequence]


def as_tensor(value: TensorLike) -> Tensor:
    """Coerce a value to :class:`Tensor` without copying existing tensors."""
    return value if isinstance(value, Tensor) else Tensor(value)
