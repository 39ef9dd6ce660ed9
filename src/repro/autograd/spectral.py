"""The frequency-domain filtering operator used by every filter-mixer block.

Forward (Eqs. 12, 21, 25-27 of the paper)::

    X = rfft(x, axis=1)                   # (B, M, d) complex, M = N//2 + 1
    Y = X * Σ_b scale_b * W_b             # element-wise complex filter
    y = irfft(Y, n=N, axis=1)             # (B, N, d) real

Each branch ``b`` is a learnable complex filter ``W_b`` times a constant
``(M, 1)`` scale.  SLIME4Rec's DFS+SFS block passes two branches,
``(1-γ)·mask_D`` and ``γ·mask_S``: by linearity of the DFT, mixing the
two filtered spectra (Eqs. 26-27) equals filtering once with the summed
filter, so the whole block runs on one FFT pair.  The ablations w/oD and
w/oS, and FMLP-Rec, pass one branch with scale ``1·mask``.

Each filter is stored as two *real* parameter tensors (real and
imaginary part) so the rest of the autograd engine never needs complex
dtypes.  The backward pass is derived analytically from the convolution
theorem (the whole op is a circular convolution with a real kernel
``h = irfft(filt)``)::

    dx   = irfft(rfft(g) * conj(filt), n=N)     (circular correlation)
    base = mirror/N * Σ_batch conj(X) · rfft(g)
    dW_b = scale_b * base

where ``mirror`` doubles interior bins to account for the
conjugate-symmetric half of the spectrum (DC and, for even N, the
Nyquist bin appear once; their imaginary parts receive zero gradient).
The test suite checks values and gradients against an O(N²) oracle built
from primitive autograd ops through explicit DFT matrices, and against
central finite differences.

Last-position mode
------------------
``spectral_filter(x, branches, last=True)`` returns only row ``N-1``,
``(B, 1, d)``: the user vector of a last block (Eq. 31) reads nothing
else.  Row ``N-1`` of a circular convolution is one weighted sum over
positions, so no FFT of the activations is needed in either
direction::

    h       = irfft(Σ_b scale_b * W_b, n=N, axis=0)    # (N, d), per call
    y[:, 0] = Σ_n x[:, n] · h[N-1-n]

    dx      = g ⊗ h[::-1]                              # (B, N, d)
    dh      = (Σ_batch x · g)[::-1]                    # (N, d)
    dW_b    = scale_b * rfft(dh, axis=0) * mirror/N    # adjoint of the irfft

with the same DC/Nyquist imaginary gradients zeroed as the full mode.
The kernel ``h`` is rebuilt from the live weights inside the replay
closure, like the full mode's filter.

Workspace contract
------------------
All ``L`` mixer layers of a step share one ``(B, N, d)`` geometry, so
the op routes its transient frequency-domain products (``X * filt``
forward, ``rfft(g) * conj(filt)`` and ``conj(X) * rfft(g)`` backward)
through the shared per-step workspace
(:mod:`repro.autograd.workspace`) instead of allocating a fresh
``(B, M, d)`` complex array per call.  Only the forward spectrum — the
one array the backward closure genuinely needs later — is kept per
layer.  Dtype contract: float32 inputs keep the whole pipeline in
``complex64`` (scipy's pocketfft transforms float32 natively in single
precision), float64 in ``complex128``; branch scales are cast to the
input dtype; scratch reuse silently falls back to allocation when input
dtypes disagree (mixed-precision calls), so values never change.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np
import scipy.fft

from repro.autograd.graph import record_node
from repro.autograd.tensor import Tensor, as_tensor, is_grad_enabled
from repro.autograd.workspace import get_workspace

__all__ = ["num_frequency_bins", "spectral_filter"]


def num_frequency_bins(n: int) -> int:
    """Number of independent rFFT bins for a length-``n`` real signal.

    This equals ``n // 2 + 1``, which matches the paper's
    ``M = ceil(N / 2) + 1`` for even ``N`` (the paper's sequence lengths
    are all even) and is the correct bin count for odd ``N`` as well.
    """
    if n <= 0:
        raise ValueError(f"sequence length must be positive, got {n}")
    return n // 2 + 1


#: Cached, read-only mirror-weight vectors keyed by sequence length and
#: dtype — pure functions of ``n`` that sit on the per-layer hot path.
#: The dtype key keeps float32 backward passes in complex64: a float64
#: mirror vector would silently promote the batch-summed spectrum
#: product to complex128.
_MIRROR_CACHE: dict = {}


def _mirror_weights(n: int, dtype=np.float64) -> np.ndarray:
    """Per-bin multiplicity of the half-spectrum in the full spectrum."""
    key = (n, np.dtype(dtype))
    cached = _MIRROR_CACHE.get(key)
    if cached is not None:
        return cached
    m = num_frequency_bins(n)
    w = np.full(m, 2.0, dtype=key[1])
    w[0] = 1.0
    if n % 2 == 0:
        w[-1] = 1.0
    w.setflags(write=False)
    _MIRROR_CACHE[key] = w
    return w


#: Cap (in bytes) on the real-signal equivalent of one row block of a
#: frequency-domain product.  Large batches — the stacked ``(3B, N, d)``
#: multi-view geometry in particular — compute their ``(B, M, d)``
#: complex products block by block so each block stays cache-resident
#: for the FFT or reduction that consumes it.  Each row is independent,
#: so blocking is value-identical to one full-width product.
_FFT_BLOCK_BYTES = 1 << 18


def _fft_block_rows(shape: Tuple[int, ...], itemsize: int) -> int:
    """Rows per block for a ``(rows, N, d)`` real operand."""
    row_bytes = max(1, int(np.prod(shape[1:])) * itemsize)
    return max(1, _FFT_BLOCK_BYTES // row_bytes)


def _mul_into(a: np.ndarray, b: np.ndarray, tag: str) -> np.ndarray:
    """``a * b`` written into a shared workspace scratch buffer.

    The product is transient in every call site here (it feeds straight
    into an FFT or a batch reduction), so all layers of a step reuse
    one buffer per ``(tag, shape, dtype)``.  Falls back to a plain
    allocating multiply when the operands would promote past ``a``'s
    dtype (mixed-precision inputs), keeping values identical either way.
    """
    if np.result_type(a, b) != a.dtype:
        return a * b
    return np.multiply(a, b, out=get_workspace().scratch(tag, a.shape, a.dtype))


def _filtered_irfft(spectrum: np.ndarray, filt: np.ndarray, n: int, tag: str) -> np.ndarray:
    """``irfft(spectrum * filt, n)`` with a cache-resident blocked product.

    The full-size frequency product is never materialized: each row
    block's ``spectrum * filt`` lands in a small workspace scratch that
    stays hot for the immediately following blocked ``irfft`` — cutting
    a full write+read of the ``(B, M, d)`` complex array per call.
    Per-row results are identical to the unblocked form.
    """
    rows = spectrum.shape[0]
    real_dtype = np.empty(0, dtype=spectrum.dtype).real.dtype
    block = _fft_block_rows((rows, n, spectrum.shape[2]), real_dtype.itemsize)
    if rows <= block or np.result_type(spectrum, filt) != spectrum.dtype:
        return scipy.fft.irfft(_mul_into(spectrum, filt, tag), n=n, axis=1)
    out = np.empty((rows, n, spectrum.shape[2]), dtype=real_dtype)
    ws = get_workspace()
    for i in range(0, rows, block):
        j = min(i + block, rows)
        prod = np.multiply(
            spectrum[i:j], filt, out=ws.scratch(tag, (j - i,) + spectrum.shape[1:], spectrum.dtype)
        )
        out[i:j] = scipy.fft.irfft(prod, n=n, axis=1)
    return out


def _conj_mul_batch_sum(a: np.ndarray, b: np.ndarray, tag: str) -> np.ndarray:
    """``(conj(a) * b).sum(axis=0)`` with a cache-resident blocked product.

    Serves the filter-gradient reduction: only block-sized products are
    materialized and each block's partial sum folds into a small
    ``(M, d)`` accumulator.  Blockwise partial sums reassociate the
    batch reduction (float-rounding-level differences only).
    """
    rows = a.shape[0]
    real_itemsize = np.empty(0, dtype=a.dtype).real.dtype.itemsize
    block = _fft_block_rows(a.shape, real_itemsize)
    if rows <= block or np.result_type(a, b) != a.dtype:
        return _conj_mul_into(a, b, tag).sum(axis=0)
    acc = np.zeros(a.shape[1:], dtype=a.dtype)
    ws = get_workspace()
    for i in range(0, rows, block):
        j = min(i + block, rows)
        buf = ws.scratch(tag, (j - i,) + a.shape[1:], a.dtype)
        np.conjugate(a[i:j], out=buf)
        buf *= b[i:j]
        acc += buf.sum(axis=0)
    return acc


def _conj_mul_into(a: np.ndarray, b: np.ndarray, tag: str) -> np.ndarray:
    """``conj(a) * b`` via a workspace buffer (no intermediate conj array)."""
    if np.result_type(a, b) != a.dtype:
        return np.conj(a) * b
    buf = get_workspace().scratch(tag, a.shape, a.dtype)
    np.conjugate(a, out=buf)
    buf *= b
    return buf


def spectral_filter(x, branches: Sequence[tuple], last: bool = False) -> Tensor:
    """Filter a real sequence with ``Σ scale·(w_real + i·w_imag)``.

    Parameters
    ----------
    x:
        Real tensor of shape ``(B, N, d)`` (time domain).
    branches:
        Non-empty sequence of ``(scale, w_real, w_imag)``.  ``w_real``
        and ``w_imag`` are real tensors of shape ``(M, d)`` holding one
        complex filter, where ``M = N // 2 + 1``; ``scale`` is a constant
        ``(M, 1)`` array — the branch weight times its 0/1 frequency
        band (the sliding window of the frequency ramp structure).
    last:
        Return only the last output position, ``(B, 1, d)``: the same
        value as ``spectral_filter(x, branches)[:, -1:]`` (to float
        reassociation), computed as one weighted sum over positions with
        no FFT of ``x`` or of its gradient.

    Returns
    -------
    Tensor
        Real tensor of shape ``(B, N, d)``, or ``(B, 1, d)`` when
        ``last``.
    """
    x = as_tensor(x)
    if x.ndim != 3:
        raise ValueError(f"x must be (B, N, d), got shape {x.shape}")
    if not branches:
        raise ValueError(f"spectral_filter needs at least one branch, got none for x {x.shape}")
    _, n, d = x.shape
    m = num_frequency_bins(n)
    checked = []
    for scale, w_real, w_imag in branches:
        w_real, w_imag = as_tensor(w_real), as_tensor(w_imag)
        if w_real.shape != w_imag.shape:
            raise ValueError(f"w_real {w_real.shape} and w_imag {w_imag.shape} differ")
        if w_real.shape != (m, d):
            raise ValueError(
                f"filter has shape {w_real.shape} but x of shape {x.shape} needs ({m}, {d})"
            )
        scale = np.asarray(scale, dtype=x.dtype)
        if scale.shape != (m, 1):
            raise ValueError(f"branch scale must have shape ({m}, 1), got {scale.shape}")
        checked.append((scale, w_real, w_imag))
    params = [w for _, w_real, w_imag in checked for w in (w_real, w_imag)]

    def combined_filter() -> np.ndarray:
        # Recombined from the live parameter arrays on every call, so a
        # static-graph replay picks up post-optimizer weights.
        scale, w_real, w_imag = checked[0]
        filt = scale * (w_real.data + 1j * w_imag.data)  # (M, d) complex
        for scale, w_real, w_imag in checked[1:]:
            filt += scale * (w_real.data + 1j * w_imag.data)
        return filt

    # Replay closures rebind these cells for the backward closure.
    filt = spectrum = kernel = signal = None

    def forward_full():
        nonlocal filt, spectrum
        filt = combined_filter()
        spectrum = scipy.fft.rfft(x.data, axis=1)  # (B, M, d) complex
        return _filtered_irfft(spectrum, filt, n, "spectral.prod").astype(x.dtype, copy=False)

    def forward_last():
        nonlocal kernel, signal
        # Row n of the time-reversed impulse response weights x[:, n].
        kernel = np.ascontiguousarray(scipy.fft.irfft(combined_filter(), n=n, axis=0)[::-1])
        signal = x.data
        return np.einsum("bnj,nj->bj", signal, kernel)[:, None, :].astype(x.dtype, copy=False)

    forward = forward_last if last else forward_full
    out = forward()

    if not (
        is_grad_enabled()
        and any(t.requires_grad or t._backward is not None for t in [x] + params)
    ):
        result = Tensor(out)
        record_node(result, forward, "spectral_filter")
        return result

    mirror = _mirror_weights(n, x.dtype)[:, None]  # (M, 1)

    def filter_grads(base: np.ndarray) -> list:
        """``(dW_real_b, dW_imag_b)`` for every branch from ``base = dF``."""
        grads = []
        for scale, _, _ in checked:
            dw = base * scale  # gradient only flows inside the band
            dw_real = dw.real.astype(x.dtype, copy=False)
            dw_imag = dw.imag.astype(x.dtype, copy=False)
            # DC (and Nyquist for even N) imaginary parts do not affect
            # the real output; zero their gradients explicitly.
            dw_imag[0] = 0.0
            if n % 2 == 0:
                dw_imag[-1] = 0.0
            grads.extend((dw_real, dw_imag))
        return grads

    def backward_full(grad):
        grad_spec = scipy.fft.rfft(grad, axis=1)  # (B, M, d)
        gx = _filtered_irfft(grad_spec, np.conj(filt), n, "spectral.gprod").astype(
            x.dtype, copy=False
        )
        # One batch-summed spectrum product serves every branch; the
        # blocked product reuses the grad-side scratch (each block is
        # consumed by the irfft above before the sum re-fills it).
        base = _conj_mul_batch_sum(spectrum, grad_spec, "spectral.gprod") * (mirror / n)
        return tuple([gx] + filter_grads(base))

    def backward_last(grad):
        g = grad[:, 0, :]  # (B, d)
        gx = (g[:, None, :] * kernel).astype(x.dtype, copy=False)
        # dh[t] = Σ_b x[b, N-1-t]·g[b]: the reversed kernel's gradient,
        # flipped back; rfft·mirror/N is the adjoint of the (N, d) irfft.
        dh = np.einsum("bnj,bj->nj", signal, g)[::-1]
        base = scipy.fft.rfft(dh, axis=0) * (mirror / n)
        return tuple([gx] + filter_grads(base))

    backward = backward_last if last else backward_full
    result = Tensor(out, _parents=tuple([x] + params), _backward=backward)
    record_node(result, forward, "spectral_filter")
    return result
