"""Differentiable operations on :class:`~repro.autograd.tensor.Tensor`.

Every function here follows the same contract:

- accept tensors (or array-likes, which are promoted to constants),
- compute the forward value with numpy,
- when grad mode is on and any input requires grad, attach a backward
  closure returning one gradient per parent (``None`` for integer or
  non-differentiable parents).

Gradients returned by closures are reduced to the parent shape with
:func:`~repro.autograd.tensor.unbroadcast` so that all binary ops support
full numpy broadcasting.

Hot-path ops (the fused post-norm tail, GELU, ``layer_norm``'s and
``embedding``'s backward) route their transient working memory through
the shared per-step workspace
(:mod:`repro.autograd.workspace`) so repeated calls at one ``(B, N, d)``
geometry reuse buffers instead of allocating.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.autograd.graph import GraphCaptureError, record_node
from repro.autograd.graph import _active as _graph_active
from repro.autograd.tensor import Tensor, as_tensor, is_grad_enabled, unbroadcast
from repro.autograd.workspace import get_workspace

__all__ = [
    "add", "sub", "mul", "div", "neg", "pow", "exp", "log", "sqrt",
    "tanh", "sigmoid", "relu", "gelu", "matmul", "linear", "linear_gelu", "reshape",
    "transpose",
    "sum", "mean", "getitem", "concat", "stack",
    "softmax", "cross_entropy", "linear_cross_entropy",
    "sampled_softmax_loss",
    "embedding", "dropout",
    "layer_norm", "dropout_add_layer_norm", "clip", "masked_fill",
    "logsigmoid", "l2_normalize",
]


def _make(data: np.ndarray, parents: Tuple[Tensor, ...], backward, replay=None) -> Tensor:
    """Build an output tensor, recording the graph only when needed.

    ``replay`` is the op's forward closure (sharing saved state with
    ``backward`` via ``nonlocal``): calling it re-runs the same numpy
    expressions against the parents' *current* payloads and returns the
    fresh output array.  Under an active static-graph capture
    (:mod:`repro.autograd.graph`) every node — including grad-free ones,
    whose values are still input-dependent — is recorded with its replay
    closure; a node built without one raises :class:`GraphCaptureError`
    naming the op, so capture validates replay-safety at record time.
    """
    if is_grad_enabled() and any(p.requires_grad or p._backward is not None for p in parents):
        out = Tensor(data, _parents=parents, _backward=backward)
    else:
        out = Tensor(data)
    if _graph_active() is not None:
        name = getattr(backward, "__qualname__", "op").split(".")[0]
        if replay is None:
            raise GraphCaptureError(
                f"op '{name}' does not provide a replay closure and cannot "
                "be captured into a static graph"
            )
        record_node(out, replay, name)
    return out


# ----------------------------------------------------------------------
# Elementwise arithmetic
# ----------------------------------------------------------------------

_PYTHON_SCALARS = (int, float)


def _operands(a, b) -> Tuple[Tensor, Tensor]:
    """Coerce a binary op's operands; a python scalar takes the other's dtype.

    This is NumPy's weak-scalar rule (NEP 50): a python ``int``/``float``
    becomes ``np.result_type(t.dtype, s)``, so ``f32 * 0.1`` multiplies
    by ``float32(0.1)``, ``f64 * 0.1`` by the float64 constant and
    ``int64 * 0.5`` promotes to float64.  Arrays and numpy scalars keep
    their own dtype.
    """
    if type(a) in _PYTHON_SCALARS:
        b = as_tensor(b)
        return Tensor(np.asarray(a, np.result_type(b.dtype, a))), b
    a = as_tensor(a)
    if type(b) in _PYTHON_SCALARS:
        return a, Tensor(np.asarray(b, np.result_type(a.dtype, b)))
    return a, as_tensor(b)


def add(a, b) -> Tensor:
    a, b = _operands(a, b)

    def forward():
        return a.data + b.data

    def backward(grad):
        return unbroadcast(grad, a.shape), unbroadcast(grad, b.shape)

    return _make(forward(), (a, b), backward, forward)


def sub(a, b) -> Tensor:
    a, b = _operands(a, b)

    def forward():
        return a.data - b.data

    def backward(grad):
        return unbroadcast(grad, a.shape), unbroadcast(-grad, b.shape)

    return _make(forward(), (a, b), backward, forward)


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)

    def forward():
        return a.data * b.data

    def backward(grad):
        return (
            unbroadcast(grad * b.data, a.shape),
            unbroadcast(grad * a.data, b.shape),
        )

    return _make(forward(), (a, b), backward, forward)


def div(a, b) -> Tensor:
    a, b = _operands(a, b)

    def forward():
        return a.data / b.data

    def backward(grad):
        ga = grad / b.data
        gb = -grad * a.data / (b.data * b.data)
        return unbroadcast(ga, a.shape), unbroadcast(gb, b.shape)

    return _make(forward(), (a, b), backward, forward)


def neg(a) -> Tensor:
    a = as_tensor(a)

    def forward():
        return -a.data

    def backward(grad):
        return (-grad,)

    return _make(forward(), (a,), backward, forward)


def pow(a, exponent: float) -> Tensor:
    a = as_tensor(a)
    if isinstance(exponent, Tensor):
        raise TypeError("tensor exponents are not supported; use exp/log")
    # numpy only fast-paths integer exponents up to 2; cubes through
    # ``**`` fall back to a transcendental pow that is ~40x slower than
    # two multiplies, so expand tiny integer powers explicitly.
    def forward():
        if exponent == 2:
            return a.data * a.data
        if exponent == 3:
            return a.data * a.data * a.data
        return a.data ** exponent

    def backward(grad):
        return (grad * exponent * a.data ** (exponent - 1),)

    return _make(forward(), (a,), backward, forward)


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = None

    def forward():
        nonlocal out
        out = np.exp(a.data)
        return out

    def backward(grad):
        return (grad * out,)

    return _make(forward(), (a,), backward, forward)


def log(a) -> Tensor:
    a = as_tensor(a)

    def forward():
        return np.log(a.data)

    def backward(grad):
        return (grad / a.data,)

    return _make(forward(), (a,), backward, forward)


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out = None

    def forward():
        nonlocal out
        out = np.sqrt(a.data)
        return out

    def backward(grad):
        return (grad * 0.5 / out,)

    return _make(forward(), (a,), backward, forward)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = None

    def forward():
        nonlocal out
        out = np.tanh(a.data)
        return out

    def backward(grad):
        return (grad * (1.0 - out * out),)

    return _make(forward(), (a,), backward, forward)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out = None

    def forward():
        nonlocal out
        out = 1.0 / (1.0 + np.exp(-np.clip(a.data, -60.0, 60.0)))
        return out

    def backward(grad):
        return (grad * out * (1.0 - out),)

    return _make(forward(), (a,), backward, forward)


def logsigmoid(a) -> Tensor:
    """Numerically stable ``log(sigmoid(x))``."""
    a = as_tensor(a)

    def forward():
        x = a.data
        out = np.where(x >= 0, -np.log1p(np.exp(-x)), x - np.log1p(np.exp(x)))
        return out.astype(x.dtype, copy=False)

    def backward(grad):
        sig = 1.0 / (1.0 + np.exp(-np.clip(a.data, -60.0, 60.0)))
        return (grad * (1.0 - sig),)

    return _make(forward(), (a,), backward, forward)


def relu(a) -> Tensor:
    a = as_tensor(a)

    def forward():
        return np.maximum(a.data, 0.0)

    def backward(grad):
        return (grad * (a.data > 0),)

    return _make(forward(), (a,), backward, forward)


_GELU_C = np.sqrt(2.0 / np.pi)

#: Values per block of the fused elementwise chains (GELU's forward and
#: backward): a block's temporaries (512 KiB in float64) stay in cache
#: instead of streaming full-size intermediates through memory.
_ELEMENTWISE_BLOCK = 1 << 16


def _blocks(size: int):
    for start in range(0, size, _ELEMENTWISE_BLOCK):
        yield slice(start, min(start + _ELEMENTWISE_BLOCK, size))


def _gelu_forward(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(gelu(x), t)`` with ``t = tanh(C·(x + 0.044715·x³))``, the
    backward's saved state.

    Cubes are expanded to multiplies (numpy's float pow is ~40x
    slower) and the chain runs block by block through one workspace
    buffer; each expression keeps the textbook elementwise value (only
    exact power-of-two scalings and commuted multiplications differ).
    """
    flat = x.reshape(-1)
    out = np.empty(flat.shape, dtype=x.dtype)
    t = np.empty(flat.shape, dtype=x.dtype)
    buf = get_workspace().scratch("gelu.inner", (min(flat.size, _ELEMENTWISE_BLOCK),), x.dtype)
    for block in _blocks(flat.size):
        xb, tb, ob = flat[block], t[block], out[block]
        inner = np.multiply(xb, xb, out=buf[: len(xb)])
        inner *= xb
        inner *= 0.044715
        inner += xb
        inner *= _GELU_C
        np.tanh(inner, out=tb)
        np.add(tb, 1.0, out=ob)
        ob *= xb
        ob *= 0.5
    return out.reshape(x.shape), t.reshape(x.shape)


def _gelu_backward(grad: np.ndarray, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """GELU's input gradient from the forward's ``x`` and ``t``; ``x²``
    is recomputed per block rather than kept from the forward."""
    flat, t_flat, g_flat = x.reshape(-1), t.reshape(-1), grad.reshape(-1)
    dx = np.empty(t_flat.shape, dtype=t.dtype)
    ws = get_workspace()
    size = (min(flat.size, _ELEMENTWISE_BLOCK),)
    dinner_buf = ws.scratch("gelu.dinner", size, x.dtype)
    sech_buf = ws.scratch("gelu.sech_sq", size, t.dtype)
    for block in _blocks(flat.size):
        xb, tb, db = flat[block], t_flat[block], dx[block]
        # dinner = C * (1 + 3*0.044715*x^2)
        dinner = np.multiply(xb, xb, out=dinner_buf[: len(xb)])
        dinner *= 3 * 0.044715
        dinner += 1.0
        dinner *= _GELU_C
        # dx = 0.5*(1+t) + 0.5*x*(1-t^2)*dinner
        sech_sq = np.multiply(tb, tb, out=sech_buf[: len(xb)])
        np.subtract(1.0, sech_sq, out=sech_sq)
        sech_sq *= xb
        sech_sq *= 0.5
        sech_sq *= dinner
        np.add(tb, 1.0, out=db)
        db *= 0.5
        db += sech_sq
        db *= g_flat[block]
    return dx.reshape(t.shape)


def gelu(a) -> Tensor:
    """GELU activation (tanh approximation, as used by the paper's FFN);
    the kernels are :func:`_gelu_forward` and :func:`_gelu_backward`."""
    a = as_tensor(a)
    x = t = None

    def forward():
        nonlocal x, t
        x = a.data
        out, t = _gelu_forward(x)
        return out

    def backward(grad):
        return (_gelu_backward(grad, x, t),)

    return _make(forward(), (a,), backward, forward)


def clip(a, lo: float, hi: float) -> Tensor:
    a = as_tensor(a)

    def forward():
        return np.clip(a.data, lo, hi)

    def backward(grad):
        inside = (a.data >= lo) & (a.data <= hi)
        return (grad * inside,)

    return _make(forward(), (a,), backward, forward)


def masked_fill(a, mask, value: float) -> Tensor:
    """Set positions where ``mask`` is True to ``value`` (e.g. -inf logits).

    ``mask`` may be any shape broadcastable to ``a`` (attention passes
    ``(1, 1, N, N)`` or ``(B, 1, N, N)`` blocks against ``(B, H, N, N)``
    scores); the backward inverts the *small* mask and lets the
    multiply broadcast, instead of materializing the full-shape
    inverse.
    """
    a = as_tensor(a)
    mask = mask.data if isinstance(mask, Tensor) else np.asarray(mask)

    def forward():
        return np.where(
            np.broadcast_to(mask, a.shape), np.asarray(value, dtype=a.dtype), a.data
        )

    def backward(grad):
        return (grad * ~mask,)

    return _make(forward(), (a,), backward, forward)


# ----------------------------------------------------------------------
# Shape manipulation
# ----------------------------------------------------------------------

def reshape(a, shape: Tuple[int, ...]) -> Tensor:
    a = as_tensor(a)

    def forward():
        return a.data.reshape(shape)

    def backward(grad):
        return (grad.reshape(a.shape),)

    return _make(forward(), (a,), backward, forward)


def transpose(a, axes: Optional[Tuple[int, ...]] = None) -> Tensor:
    a = as_tensor(a)
    if axes is None:
        inverse = None
    else:
        inverse = np.argsort(axes)

    def forward():
        return np.transpose(a.data, axes)

    def backward(grad):
        return (np.transpose(grad, inverse),)

    return _make(forward(), (a,), backward, forward)


def _is_basic_index(index) -> bool:
    """True for int/slice-only indexing, where positions cannot repeat."""
    basic = (int, np.integer, slice, type(Ellipsis), type(None))
    if isinstance(index, tuple):
        return all(isinstance(i, basic) for i in index)
    return isinstance(index, basic)


def getitem(a, index) -> Tensor:
    a = as_tensor(a)
    if isinstance(index, Tensor):
        index = index.data

    def forward():
        return np.asarray(a.data[index])  # scalar indexing yields numpy scalars

    def backward(grad):
        full = np.zeros_like(a.data)
        if _is_basic_index(index):
            # Basic indexing selects each position at most once, so a
            # direct assignment replaces the (much slower) ``np.add.at``
            # scatter — this is the ``states[:, -1]`` hot path.
            full[index] = grad
        else:
            np.add.at(full, index, grad)
        return (full,)

    return _make(forward(), (a,), backward, forward)


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def forward():
        return np.concatenate([t.data for t in tensors], axis=axis)

    def backward(grad):
        slicer = [slice(None)] * grad.ndim
        grads = []
        for i in range(len(tensors)):
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(grad[tuple(slicer)])
        return tuple(grads)

    return _make(forward(), tuple(tensors), backward, forward)


def stack(tensors: Sequence, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]

    def forward():
        return np.stack([t.data for t in tensors], axis=axis)

    def backward(grad):
        pieces = np.split(grad, len(tensors), axis=axis)
        return tuple(np.squeeze(p, axis=axis) for p in pieces)

    return _make(forward(), tuple(tensors), backward, forward)


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------

def sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    # Full reductions return *numpy scalars*; wrap them as 0-d arrays so
    # the output (and its replay payload) is always an ndarray.
    def forward():
        return np.asarray(a.data.sum(axis=axis, keepdims=keepdims))

    def backward(grad):
        g = grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).astype(a.dtype, copy=False),)

    return _make(forward(), (a,), backward, forward)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    # Keep ``count`` a python int: a strong ``np.int64`` scalar would
    # promote float32 gradients to float64 in the division below.
    count = a.data.size if axis is None else int(np.prod(
        [a.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))]
    ))

    def forward():
        return np.asarray(a.data.mean(axis=axis, keepdims=keepdims))  # see sum()

    def backward(grad):
        g = grad / count
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).astype(a.dtype, copy=False),)

    return _make(forward(), (a,), backward, forward)


# ----------------------------------------------------------------------
# Linear algebra
# ----------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def forward():
        return np.asarray(a.data @ b.data)  # 1-d @ 1-d yields a numpy scalar

    def backward(grad):
        a_d, b_d = a.data, b.data
        if a_d.ndim == 1 and b_d.ndim == 1:
            return grad * b_d, grad * a_d
        if a_d.ndim == 1:  # (k,) @ (..., k, n)
            ga = (grad[..., None, :] @ np.swapaxes(b_d, -1, -2)).reshape(b_d.shape[:-2] + a_d.shape)
            ga = unbroadcast(ga, a_d.shape)
            gb = a_d[..., :, None] @ grad[..., None, :]
            gb = unbroadcast(gb, b_d.shape)
            return ga, gb
        if b_d.ndim == 1:  # (..., m, k) @ (k,)
            ga = grad[..., :, None] @ b_d[None, :]
            ga = unbroadcast(ga, a_d.shape)
            gb = np.swapaxes(a_d, -1, -2) @ grad[..., :, None]
            gb = unbroadcast(gb.reshape(gb.shape[:-1]), b_d.shape)
            # Reduce batch dims onto the vector.
            while gb.ndim > 1:
                gb = gb.sum(axis=0)
            return ga, gb
        if a_d.ndim > 2 and b_d.ndim == 2:
            # Batched input against a shared weight (every Linear on a
            # (B, N, d) activation).  The generic expressions below feed
            # BLAS *transposed views* as batched operands, which repacks
            # the weight once per batch row (~3x the GEMM cost at the
            # (3B, N, d) stacked-view geometry) and materializes a
            # (batch, k, n) per-row product that is then reduced.  Two
            # flat 2-D GEMMs — where BLAS handles the transposes as
            # flags — compute the same contractions directly.
            g2 = grad.reshape(-1, b_d.shape[1])
            ga = (g2 @ b_d.T).reshape(a_d.shape)
            gb = a_d.reshape(-1, a_d.shape[-1]).T @ g2
            return ga, gb
        ga = grad @ np.swapaxes(b_d, -1, -2)
        gb = np.swapaxes(a_d, -1, -2) @ grad
        return unbroadcast(ga, a_d.shape), unbroadcast(gb, b_d.shape)

    return _make(forward(), (a, b), backward, forward)


def linear(x, weight, bias=None) -> Tensor:
    """Fused affine map ``x @ weight + bias`` as one graph node.

    The composition ``add(matmul(x, weight), bias)`` allocates a second
    full-size output and walks it twice; here the bias is added in
    place on the fresh GEMM output (bitwise the same elementwise sum)
    and the backward computes the three gradients directly.  For
    batched inputs ``(..., k)`` the gradients run as two flat 2-D GEMMs
    (BLAS handles the transposes as flags — no per-row operand repack).
    Inputs of fewer than 2 dimensions fall back to the primitive
    composition.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    if bias is None:
        return matmul(x, weight)
    bias = as_tensor(bias)
    if x.ndim < 2 or weight.ndim != 2 or bias.data.ndim != 1:
        return add(matmul(x, weight), bias)

    def forward():
        return _linear_forward(x.data, weight.data, bias.data)

    def backward(grad):
        return _linear_backward(grad, x.data, weight.data)

    return _make(forward(), (x, weight, bias), backward, forward)


def _linear_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = x @ w
    out += b
    return out


def _linear_backward(grad: np.ndarray, x: np.ndarray, w: np.ndarray):
    """``(gx, gw, gb)`` of ``x @ w + b``; batched ``(..., k)`` inputs run
    as two flat 2-D GEMMs."""
    if grad.ndim > 2:
        g2 = grad.reshape(-1, w.shape[1])
        gx = (g2 @ w.T).reshape(x.shape)
        gw = x.reshape(-1, w.shape[0]).T @ g2
    else:
        g2 = grad
        gx = grad @ w.T
        gw = x.T @ grad
    return gx, gw, g2.sum(axis=0)


def linear_gelu(x, weight, bias) -> Tensor:
    """``gelu(linear(x, weight, bias))`` as one graph node (the FFN's
    first layer, Eq. 29).

    Runs the kernels of :func:`linear` and :func:`gelu` back to back, so
    values and gradients are bitwise the two-node chain's.  The node
    keeps the pre-activation and ``tanh`` term but no ``x²`` buffer (the
    backward recomputes it per block), and the activation gradient
    feeds the GEMMs without becoming a graph tensor.  Inputs outside
    :func:`linear`'s fused case fall back to the chain.
    """
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    if x.ndim < 2 or weight.ndim != 2 or bias.data.ndim != 1:
        return gelu(linear(x, weight, bias))
    z = t = None

    def forward():
        nonlocal z, t
        z = _linear_forward(x.data, weight.data, bias.data)
        out, t = _gelu_forward(z)
        return out

    def backward(grad):
        return _linear_backward(_gelu_backward(grad, z, t), x.data, weight.data)

    return _make(forward(), (x, weight, bias), backward, forward)


# ----------------------------------------------------------------------
# Neural-network primitives
# ----------------------------------------------------------------------

def softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    out = None

    def forward():
        nonlocal out
        shifted = a.data - a.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        out = e / e.sum(axis=axis, keepdims=True)
        return out

    def backward(grad):
        dot = (grad * out).sum(axis=axis, keepdims=True)
        return (out * (grad - dot),)

    return _make(forward(), (a,), backward, forward)


def cross_entropy(logits, targets) -> Tensor:
    """Mean softmax cross-entropy over the last axis.

    Parameters
    ----------
    logits:
        Tensor of shape ``(..., num_classes)``.
    targets:
        Integer array of shape ``(...,)`` with class indices.

    The InfoNCE objective's op, over ``(2B, 2B)`` similarity logits.
    The prediction head scores the item table through
    :func:`linear_cross_entropy`, which never keeps the logits.
    """
    logits = as_tensor(logits)
    targets = targets.data if isinstance(targets, Tensor) else np.asarray(targets)

    # Target-derived state is recomputed inside ``forward`` — the target
    # array object is baked into the closure, its *contents* are step
    # input that a static-graph replay refreshes in place.
    log_probs = rows = flat_targets = scale = None

    def forward():
        nonlocal log_probs, rows, flat_targets, scale
        flat_logits = logits.data.reshape(-1, logits.data.shape[-1])
        flat_targets = targets.reshape(-1).astype(np.int64)
        count = max(flat_targets.shape[0], 1)
        # A float64 column, so the backward scales in float64 and then
        # rounds, whatever the logits dtype.
        scale = np.full((flat_targets.shape[0], 1), 1.0 / count, dtype=np.float64)
        rows = np.arange(flat_targets.shape[0])
        shifted = flat_logits - flat_logits.max(axis=1, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        log_probs = shifted - log_z
        loss = -log_probs[rows, flat_targets].sum() / count
        return np.asarray(loss, dtype=logits.data.dtype)

    def backward(grad):
        soft = np.exp(log_probs)
        soft[rows, flat_targets] -= 1.0
        soft *= scale
        return ((grad * soft).reshape(logits.shape).astype(logits.dtype, copy=False),)

    return _make(forward(), (logits,), backward, forward)


#: Cap (in bytes) on the ``(R, C)`` logits block that
#: :func:`linear_cross_entropy` streams the class table through.  One
#: block is bitwise the dense composition, so the cap sits above every
#: head this repo trains: the 100k-item benchmark head (128 rows x
#: 100,001 classes, float32) is ~51 MB, and BERT4Rec's Cloze head at
#: the full experiment budget (256 x 50 rows x 356 classes, float64)
#: is ~36 MB.  Bigger heads stream, and their peak memory stays at
#: about one block.
_CE_BLOCK_BYTES = 64 << 20


def linear_cross_entropy(
    inputs, weight, targets, ignore_index: Optional[int] = None
) -> Tensor:
    """Mean softmax cross-entropy of ``inputs @ weight.T`` (Eq. 31-32).

    The full-softmax prediction head, as one graph node.  The op walks
    the ``(V, d)`` class table in column blocks whose ``(R, C)`` logits
    fit in :data:`_CE_BLOCK_BYTES`.  The forward keeps a running
    log-sum-exp per row; the backward recomputes each block's logits
    (one extra GEMM) instead of keeping them, so no logits array
    outlives either pass.

    Parameters
    ----------
    inputs:
        Tensor of shape ``(..., d)`` (user or position vectors).
    weight:
        Tensor of shape ``(V, d)``; class ``c`` scores against row
        ``weight[c]`` (the natural layout of an embedding table).
    targets:
        Integer array of shape ``(...,)`` with class indices.
    ignore_index:
        Optional target value whose positions contribute zero loss
        (the padding of the Cloze objectives).

    A head that fits one block runs the dense composition
    ``cross_entropy(matmul(inputs, weight.T))`` expression for
    expression, so its loss and both gradients are bitwise that
    composition's (``tests/ce_reference.py`` keeps it as the oracle).
    More blocks sum the normalizer and the input gradient in a
    different order, which moves values at rounding level.
    """
    inputs, weight = as_tensor(inputs), as_tensor(weight)
    targets = targets.data if isinstance(targets, Tensor) else np.asarray(targets)
    num_classes, dim = weight.shape
    row_max = log_z = scale = safe_targets = None

    def blocks():
        """``(c0, c1, logits)`` per column block, logits ``(R, c1 - c0)``."""
        x, w = inputs.data, weight.data
        rows = max(x.size // dim, 1)
        width = max(1, _CE_BLOCK_BYTES // (rows * x.dtype.itemsize))
        for c0 in range(0, num_classes, width):
            c1 = min(c0 + width, num_classes)
            # The GEMM keeps the leading shape of ``inputs``: on 3-D
            # input, numpy's batched matmul and one flat 2-D GEMM
            # round differently.
            block = x @ w[c0:c1].T
            yield c0, c1, block.reshape(-1, c1 - c0)

    def targets_in(c0, c1):
        """Rows whose target falls in block ``[c0, c1)``, and its column."""
        hit = np.nonzero((safe_targets >= c0) & (safe_targets < c1))[0]
        return hit, safe_targets[hit] - c0

    def forward():
        nonlocal row_max, log_z, scale, safe_targets
        flat_targets = targets.reshape(-1).astype(np.int64)
        if ignore_index is None:
            valid = np.ones_like(flat_targets, dtype=bool)
        else:
            valid = flat_targets != ignore_index
        count = max(int(valid.sum()), 1)
        scale = (valid / count)[:, None]
        safe_targets = np.where(valid, flat_targets, 0)
        if safe_targets.size and (
            int(safe_targets.min()) < 0 or int(safe_targets.max()) >= num_classes
        ):
            # A blocked gather would skip an out-of-range row and train
            # on uninitialized memory instead; fail loudly.
            raise IndexError(
                f"targets out of range for {num_classes} classes "
                f"(got min {int(safe_targets.min())}, max {int(safe_targets.max())})"
            )
        dtype = inputs.data.dtype
        n = safe_targets.shape[0]
        row_max = np.full(n, -np.inf, dtype=dtype)
        sum_exp = np.zeros(n, dtype=dtype)
        picked = np.empty(n, dtype=dtype)
        for c0, c1, block in blocks():
            hit, cols = targets_in(c0, c1)
            picked[hit] = block[hit, cols]
            new_max = np.maximum(row_max, block.max(axis=1))
            sum_exp *= np.exp(row_max - new_max)
            row_max = new_max
            block -= row_max[:, None]
            np.exp(block, out=block)
            sum_exp += block.sum(axis=1)
        log_z = np.log(sum_exp)
        picked = picked - row_max - log_z
        loss = -(picked * valid).sum() / count
        return np.asarray(loss, dtype=dtype)

    def backward(grad):
        x = inputs.data.reshape(-1, dim)
        g_x = None
        g_w = []
        for c0, c1, block in blocks():
            # The dense order: shift by the row max, subtract log_z,
            # exponentiate, take one off the targets, scale, then grad.
            block -= row_max[:, None]
            block -= log_z[:, None]
            np.exp(block, out=block)
            hit, cols = targets_in(c0, c1)
            block[hit, cols] -= 1.0
            block *= scale
            block *= grad
            part = block @ weight.data[c0:c1]
            if g_x is None:
                g_x = part
            else:
                g_x += part
            g_w.append((x.T @ block).T)
        g_w = g_w[0] if len(g_w) == 1 else np.concatenate(g_w)
        return (
            g_x.reshape(inputs.shape).astype(inputs.dtype, copy=False),
            g_w.astype(weight.dtype, copy=False),
        )

    return _make(forward(), (inputs, weight), backward, forward)


def sampled_softmax_loss(inputs, weight, targets, sampler, num_negatives: int) -> Tensor:
    """Sampled softmax: CE over the positive plus ``K`` drawn negatives.

    The compute-bounded counterpart of :func:`linear_cross_entropy` for
    huge catalogs: instead of streaming the full ``(R, V)`` logits, each
    row scores only its **positive class** and a **shared set of K
    sampled negatives**, so the prediction-layer cost drops from
    ``O(R·V·d)`` to ``O((R + K)·d + R·K·d)`` per step and never touches
    a ``(R, V)``-shaped buffer in either direction (Jean et al. 2015;
    the TF ``sampled_softmax_loss`` formulation).

    Parameters
    ----------
    inputs:
        Tensor of shape ``(..., d)`` (user vectors).
    weight:
        Tensor of shape ``(V, d)``; class ``c`` scores against row
        ``weight[c]`` (the natural layout of an embedding table).
    targets:
        Integer array of shape ``(...,)`` with class indices.
    sampler, num_negatives:
        Each call draws ``num_negatives`` candidate ids from
        ``sampler.sample`` (a
        :class:`repro.data.negative_sampling.NegativeSampler`, drawn
        *with replacement* and shared across the batch — one
        ``(K, d)`` gather and one ``(R, K)`` GEMM per step) and reads
        the proposal's log probabilities from ``sampler.log_q``.

    Every candidate's logit, the positive's included, has its
    ``log q`` subtracted — the correction that makes the sampled
    softmax consistent for the full softmax under the proposal (for a
    uniform proposal it is a constant shift and cancels).  A sampled
    candidate equal to a row's own target is masked to ``-inf`` there,
    so a row never scores its positive as a negative.

    The loss is the mean over rows of
    ``-log softmax([pos_logit, neg_logits])[0]``; gradients flow to
    ``inputs`` and to exactly the gathered rows of ``weight`` (a
    scatter-add, duplicates accumulated).  The checks run inside the
    forward, which builds the node and reruns on every replay; the
    targets are range-checked before the sampler draws, so a refused
    call leaves the sampler's stream where it was.
    """
    inputs, weight = as_tensor(inputs), as_tensor(weight)
    targets = targets.data if isinstance(targets, Tensor) else np.asarray(targets)
    num_classes, dim = weight.shape
    # Per-step state shared with the backward; ``forward`` re-draws the
    # negatives on every replay, so the candidate stream under a static
    # graph consumes the sampler's generator exactly like the dynamic
    # engine.
    flat_targets = negs = pos_rows = neg_rows = shifted = None

    def check_range(name, ids):
        if ids.size and (int(ids.min()) < 0 or int(ids.max()) >= num_classes):
            raise IndexError(
                f"{name} out of range for {num_classes} classes "
                f"(got min {int(ids.min())}, max {int(ids.max())})"
            )

    def forward():
        nonlocal flat_targets, negs, pos_rows, neg_rows, shifted
        if num_negatives < 1:
            raise ValueError(f"num_negatives must be >= 1, got {num_negatives}")
        flat_targets = targets.reshape(-1).astype(np.int64)
        check_range("targets", flat_targets)
        negs = np.asarray(sampler.sample(int(num_negatives)), dtype=np.int64).reshape(-1)
        check_range("negatives", negs)
        x = inputs.data.reshape(-1, dim)
        w = weight.data
        pos_rows = w[flat_targets]  # (R, d) gather; rows may repeat
        neg_rows = w[negs]  # (K, d)
        # Candidate logits: one fused (R, K+1) block — column 0 is the
        # positive, columns 1.. the shared negatives.
        all_logits = np.empty((x.shape[0], negs.size + 1), dtype=x.dtype)
        np.einsum("rd,rd->r", x, pos_rows, out=all_logits[:, 0])
        np.matmul(x, neg_rows.T, out=all_logits[:, 1:])
        all_logits[:, 0] -= sampler.log_q(flat_targets).astype(x.dtype, copy=False)
        all_logits[:, 1:] -= sampler.log_q(negs).astype(x.dtype, copy=False)[None, :]
        hits = negs[None, :] == flat_targets[:, None]  # (R, K)
        all_logits[:, 1:][hits] = -np.inf

        row_max = all_logits.max(axis=1)
        shifted = all_logits - row_max[:, None]
        np.exp(shifted, out=shifted)
        # exp(-inf - max) underflows to 0: masked hits drop out of the sum.
        log_z = np.log(shifted.sum(axis=1))
        loss = -(all_logits[:, 0] - row_max - log_z).sum() / max(x.shape[0], 1)
        return np.asarray(loss, dtype=x.dtype)

    def backward(grad):
        x = inputs.data.reshape(-1, dim)
        w = weight.data
        # Softmax over the K+1 candidates; column 0 is the positive.
        soft = shifted / shifted.sum(axis=1, keepdims=True)
        soft[:, 0] -= 1.0
        soft *= (np.asarray(grad) / max(x.shape[0], 1)).astype(x.dtype, copy=False)
        g_x = soft[:, 0:1] * pos_rows
        g_x += soft[:, 1:] @ neg_rows
        g_w = np.zeros_like(w)
        # Scatter-add both gathers back: positives row-by-row (targets
        # repeat across the batch), negatives via one (K, d) GEMM then
        # a K-row scatter (sampled-with-replacement ids repeat too).
        np.add.at(g_w, flat_targets, soft[:, 0:1] * x)
        np.add.at(g_w, negs, soft[:, 1:].T @ x)
        return (
            g_x.reshape(inputs.shape).astype(inputs.dtype, copy=False),
            g_w.astype(weight.dtype, copy=False),
        )

    return _make(forward(), (inputs, weight), backward, forward)


def embedding(weight, indices) -> Tensor:
    """Row-gather from an embedding matrix with segment-sum backward.

    The index array *object* is baked into the closures (``asarray`` /
    ``astype(copy=False)`` keep an int64 input aliased); under a static
    graph its contents are refreshed in place by the executor's input
    buffers, so replays gather the current step's rows.
    """
    weight = as_tensor(weight)
    idx = indices.data if isinstance(indices, Tensor) else np.asarray(indices)
    idx = idx.astype(np.int64, copy=False)

    def forward():
        return weight.data[idx]

    def backward(grad):
        # Scatter-add via one flat ``bincount`` over (row, column) linear
        # indices: a single C-level pass, ~4x faster than ``np.add.at``
        # and linear in both the gathered rows and the vocabulary.  The
        # linear-index array is built in a shared workspace buffer (it
        # is consumed by ``bincount`` immediately).
        rows, dim = weight.shape
        flat = idx.reshape(-1)
        ws = get_workspace()
        cols = ws.cached(("arange", dim), lambda: np.arange(dim))
        lin = ws.scratch("embedding.lin", (flat.size, dim), np.int64)
        np.add(flat[:, None] * dim, cols[None, :], out=lin)
        full = np.bincount(
            lin.reshape(-1), weights=grad.reshape(-1), minlength=rows * dim
        ).reshape(rows, dim)
        return (full.astype(weight.dtype, copy=False),)

    return _make(forward(), (weight,), backward, forward)


def dropout(
    a,
    p: float,
    training: bool,
    rng: np.random.Generator,
    seq_len: Optional[int] = None,
) -> Tensor:
    """Inverted dropout; identity when not training or ``p == 0``.

    ``a`` must be a floating tensor (else ``TypeError``); the output and
    gradient keep its dtype.  ``p`` must lie in ``[0, 1)`` and keep a
    nonzero threshold ``t = round((1 - p)·65536)`` (else ``ValueError``,
    checked in eval mode too).  All checks run before anything is drawn.

    The mask is the raw-bit rule: 64-bit words from ``rng``'s bit
    generator, read as four little-endian uint16 lanes each; an element
    is kept iff its lane ``< t``, and survivors are scaled by
    ``65536 / t`` (in ``a``'s dtype), so the keep probability is
    ``1 - p`` quantized to 1/65536.  Each last-axis row of width ``k`` starts on a
    word boundary and takes ``ceil(k/4)`` words, rows in C order
    (:func:`_draw_mask`).  A stacked ``(V*B, ...)`` call therefore
    draws exactly the masks of ``V`` consecutive ``(B, ...)`` calls.

    ``seq_len=N`` declares ``a`` the last ``a.shape[-2]`` positions of a
    length-``N`` sequence axis (``x[..., -n:, :]`` of an ``(R, ..., N, k)``
    tensor: the positions of an ``(R, N, d)`` activation, or the query
    rows of ``(R, H, N, N)`` attention probabilities).  The mask and
    ``rng``'s end state equal the trailing ``n`` rows of the full-length
    call's mask, so a caller that only reads the last position can skip
    the other ``N - n`` without changing any mask: for each leading row
    the bit generator advances past the ``(N - n)·ceil(k/4)`` skipped
    words and draws the ``n·ceil(k/4)`` kept ones.
    """
    a = as_tensor(a)
    plan = _dropout_plan(a, p, training, seq_len)
    if plan is None:
        return a
    scale = plan[1]
    # The mask draw lives inside ``forward``: a static-graph replay
    # re-draws a fresh mask from the same generator object, consuming
    # its stream exactly like the dynamic step.
    mask = None

    def forward():
        nonlocal mask
        mask = _draw_mask(rng, a.shape, plan)
        out = a.data * mask
        out *= scale
        return out

    def backward(grad):
        g = grad * mask
        g *= scale
        return (g,)

    return _make(forward(), (a,), backward, forward)


def _dropout_plan(a: Tensor, p: float, training: bool, seq_len: Optional[int]):
    """Validate a dropout call before anything is drawn: ``None`` when
    it is the identity, else ``(t, scale, kept, skip)`` for
    :func:`_draw_mask`, ``scale`` in ``a``'s dtype."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    threshold = round((1.0 - p) * 65536)
    if threshold == 0:
        raise ValueError(f"dropout probability {p} keeps no element at 1/65536 resolution")
    if not np.issubdtype(a.dtype, np.floating):
        raise TypeError(f"dropout needs a floating tensor, got dtype {a.dtype}")
    if not training or p == 0.0:
        return None
    kept, skip = 1, 0
    if seq_len is not None:
        if a.ndim < 3 or not 0 < a.shape[-2] <= seq_len:
            raise ValueError(
                f"dropout over the last positions of a length-{seq_len} sequence "
                f"needs an (R, ..., n, k) input with n in 1..{seq_len}, got shape {a.shape}"
            )
        kept, skip = a.shape[-2], seq_len - a.shape[-2]
    return threshold, a.dtype.type(65536 / threshold), kept, skip


#: 64-bit words per dropout draw block (256 KiB): the draw buffer stays
#: this size whatever the activation size.
_DRAW_BLOCK = 1 << 15

_UINT64_MAX = np.iinfo(np.uint64).max


def _draw_mask(rng: np.random.Generator, shape: Tuple[int, ...], plan) -> np.ndarray:
    """The keep mask of a dropout call planned by :func:`_dropout_plan`.

    Viewed as ``(L, n, k)``, leading row ``l``'s lanes are the last
    ``n`` of ``n + skip`` last-axis rows of a C-order draw in which every
    last-axis row takes ``ceil(k/4)`` 64-bit words, read as
    little-endian uint16 lanes (the unused lanes of a row's last word
    are dropped); ``rng`` ends where that whole draw leaves it.

    Leading rows are drawn as many per pass as fit in ``_DRAW_BLOCK``
    words (at least one).  PCG64 and PCG64DXSM draw their raw 64-bit
    outputs (``random_raw``) and skip a leading row's ``skip·ceil(k/4)``
    words with ``advance``; other bit generators draw full-range uint64
    integers (one 64-bit output each, where ``random_raw`` may hold only
    32 bits) and skip by drawing.  ``advance`` drops a buffered uint32
    half (left by an odd count of 32-bit draws, e.g. one float32
    ``rng.random``), which a 64-bit draw never touches, so it is put
    back afterwards.
    """
    threshold, _, kept, skip = plan
    mask = np.empty(shape, dtype=bool)
    if not mask.size:
        return mask
    width = shape[-1] if shape else 1
    rows = mask.reshape(-1, kept, width)
    words = -(-width // 4)
    row_words = kept * words
    bits = rng.bit_generator
    advance = isinstance(bits, (np.random.PCG64, np.random.PCG64DXSM))
    if advance:
        draw, skip_words = bits.random_raw, bits.advance
    else:
        def draw(count):
            return rng.integers(0, _UINT64_MAX, size=count, dtype=np.uint64, endpoint=True)

        skip_words = draw
    before = bits.state if skip and advance else None
    step = max(1, _DRAW_BLOCK // row_words)
    for start in range(0, len(rows), step):
        count = min(step, len(rows) - start)
        if skip:
            chunks = []
            for _ in range(count):
                skip_words(skip * words)
                chunks.append(draw(row_words))
            raw = np.concatenate(chunks)
        else:
            raw = draw(count * row_words)
        lanes = raw.astype("<u8", copy=False).view("<u2").reshape(count, kept, 4 * words)
        np.less(lanes[..., :width], threshold, out=rows[start : start + count])
    if before is not None and before["has_uint32"]:
        after = bits.state
        after.update(has_uint32=before["has_uint32"], uinteger=before["uinteger"])
        bits.state = after
    return mask


def layer_norm(a, gamma, beta, eps: float = 1e-12) -> Tensor:
    """Fused layer normalization over the last axis.

    The arithmetic matches the textbook formulation elementwise; the
    kernels (:func:`_layer_norm_forward`, :func:`_layer_norm_backward`)
    fold large intermediates in place because this op runs ~3x per
    encoder block on the training hot path.  ``gamma`` and ``beta`` must
    be 1-D of length ``a.shape[-1]`` (``ValueError`` otherwise).
    """
    a, gamma, beta = as_tensor(a), as_tensor(gamma), as_tensor(beta)
    _check_affine(a, gamma, beta)
    x = x_hat = inv_std = None

    def forward():
        nonlocal x, x_hat, inv_std
        x = a.data
        out, x_hat, inv_std = _layer_norm_forward(x, gamma.data, beta.data, eps)
        return out

    def backward(grad):
        return _layer_norm_backward(grad, x_hat, inv_std, gamma, beta, x.dtype)

    return _make(forward(), (a, gamma, beta), backward, forward)


def dropout_add_layer_norm(
    a,
    residual: Sequence,
    gamma,
    beta,
    p: float,
    training: bool,
    rng: np.random.Generator,
    seq_len: Optional[int] = None,
    eps: float = 1e-12,
) -> Tensor:
    """``layer_norm(x + dropout(a))`` or ``layer_norm((x + h) + dropout(a))``
    as one graph node, for ``residual = (x,)`` or ``(x, h)``.

    The post-norm tail of every encoder block: Eq. 28, Eq. 30 (the
    densely-residual sum) and both transformer sites.  The dropout half
    is :func:`dropout`'s (same checks, mask, ``seq_len`` contract and
    generator consumption) and the expression order is the chain's —
    ``a·mask·scale``, then the residual sum left to right, then
    :func:`layer_norm`'s kernels — so values, every gradient and the
    generator's end state are bitwise the unfused chain's.  Neither the
    dropout output (a workspace buffer) nor the sum (normalized in
    place) is a graph tensor; the node keeps the mask, ``x_hat`` and
    ``inv_std``.  Each residual must have ``a``'s shape; mixed dtypes
    promote as the chain's adds do; ``gamma`` and ``beta`` are checked
    as in :func:`layer_norm`.
    """
    a, gamma, beta = as_tensor(a), as_tensor(gamma), as_tensor(beta)
    _check_affine(a, gamma, beta)
    residual = tuple(as_tensor(r) for r in residual)
    if len(residual) not in (1, 2) or any(r.shape != a.shape for r in residual):
        raise ValueError(
            f"dropout_add_layer_norm needs one or two residuals of shape {a.shape}, "
            f"got {[r.shape for r in residual]}"
        )
    plan = _dropout_plan(a, p, training, seq_len)
    mask = x_hat = inv_std = dtype = None

    def forward():
        nonlocal mask, x_hat, inv_std, dtype
        dropped = a.data
        if plan is not None:
            mask = _draw_mask(rng, a.shape, plan)
            buf = get_workspace().scratch("dropout_add_layer_norm.dropped", a.shape, a.dtype)
            dropped = np.multiply(dropped, mask, out=buf)
            dropped *= plan[1]
        if len(residual) == 1:
            total = residual[0].data + dropped
        else:
            total = residual[0].data + residual[1].data
            in_place = np.result_type(total, dropped) == total.dtype
            total = np.add(total, dropped, out=total if in_place else None)
        dtype = total.dtype
        out, x_hat, inv_std = _layer_norm_forward(total, gamma.data, beta.data, eps, inplace=True)
        return out

    def backward(grad):
        ga, g_gamma, g_beta = _layer_norm_backward(grad, x_hat, inv_std, gamma, beta, dtype)
        g_a = ga
        if plan is not None:
            g_a = ga * mask
            g_a *= plan[1]
        return (*(ga for _ in residual), g_a, g_gamma, g_beta)

    return _make(forward(), (*residual, a, gamma, beta), backward, forward)


def _check_affine(a: Tensor, gamma: Tensor, beta: Tensor) -> None:
    """Layer norm's one affine shape: 1-D ``gamma``/``beta`` over the
    last axis of ``a``."""
    want = a.shape[-1:]
    if not want or gamma.shape != want or beta.shape != want:
        raise ValueError(
            f"layer norm needs 1-D gamma and beta of shape {want}, "
            f"got {gamma.shape} and {beta.shape}"
        )


def _layer_norm_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float,
                        inplace: bool = False):
    """``(out, x_hat, inv_std)`` of layer normalization over the last
    axis; ``inplace`` normalizes ``x`` itself into ``x_hat``."""
    dim = x.shape[-1]
    mu = x.mean(axis=-1, keepdims=True)
    xc = np.subtract(x, mu, out=x if inplace else None)
    # Row sums of squares via einsum: one read of ``xc`` and no
    # full-size squared buffer (a write+read of the whole array saved
    # per call; summation-order differences vs the old ``(xc*xc).mean``
    # land at float rounding).
    xc2 = xc.reshape(-1, dim)
    inv_std = np.einsum("ij,ij->i", xc2, xc2).reshape(mu.shape)
    inv_std /= dim
    inv_std += eps
    np.sqrt(inv_std, out=inv_std)
    np.divide(1.0, inv_std, out=inv_std)
    x_hat = np.multiply(xc, inv_std, out=xc)  # xc is dead past this point
    out = x_hat * gamma
    out += beta
    return out, x_hat, inv_std


def _layer_norm_backward(grad: np.ndarray, x_hat: np.ndarray, inv_std: np.ndarray,
                         gamma: Tensor, beta: Tensor, dtype):
    """``(g_input, g_gamma, g_beta)`` of layer normalization; the input
    gradient is a fresh array of ``dtype`` and the transient product
    buffer comes from the shared per-step workspace.

    γ and β are 1-D over the last axis (:func:`_check_affine`), and any
    input folds to ``(rows, d)`` — a 1-D input is one row.  One shared
    product buffer feeds both the gamma gradient (its batch-axis sum)
    and the variance-term row reduction; the two per-row means collapse
    into GEMVs against gamma (``(g·γ)·x̂`` summed over the feature axis
    is a dot with γ): two multiplies, two BLAS GEMVs and two batch-axis
    sums.
    """
    dim = x_hat.shape[-1]
    g2 = grad.reshape(-1, dim)
    xh2 = x_hat.reshape(-1, dim)
    prod = get_workspace().scratch(
        "layer_norm.prod", g2.shape, np.result_type(grad, x_hat)
    )
    np.multiply(g2, xh2, out=prod)
    g_gamma = prod.sum(axis=0)
    g_beta = g2.sum(axis=0)
    g_var_term = prod @ gamma.data  # rows of (g * x_hat) · gamma
    g_var_term *= 1.0 / dim
    g_mu_term = g2 @ gamma.data  # rows of (g * gamma) summed
    g_mu_term *= 1.0 / dim
    # ga = inv_std * (g*gamma - mean(g*gamma) - x_hat * g_var_term)
    ga = np.multiply(g2, gamma.data)  # fresh (R, d), returned below
    ga -= g_mu_term[:, None]
    np.multiply(xh2, g_var_term[:, None], out=prod)
    ga -= prod
    ga *= inv_std.reshape(-1, 1)
    return ga.reshape(x_hat.shape).astype(dtype, copy=False), g_gamma, g_beta


def l2_normalize(a, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Differentiable L2 normalization along ``axis``."""
    a = as_tensor(a)
    norm = sqrt(sum(mul(a, a), axis=axis, keepdims=True) + eps)
    return div(a, norm)
