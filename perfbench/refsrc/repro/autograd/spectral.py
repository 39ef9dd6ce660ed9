"""The fused frequency-domain filtering operator used by SLIME4Rec.

Forward (Eqs. 12, 21, 25, 27 of the paper)::

    X = rfft(x, axis=1)                   # (B, M, d) complex, M = N//2 + 1
    Y = X * (mask * W)                    # element-wise complex filter
    y = irfft(Y, n=N, axis=1)             # (B, N, d) real

The filter ``W`` is stored as two *real* parameter tensors (real and
imaginary part) so the rest of the autograd engine never needs complex
dtypes.  The backward pass is derived analytically from the convolution
theorem (the whole op is a circular convolution with a real kernel
``h = irfft(mask * W)``):

- ``dx = irfft(rfft(g) * conj(mask * W), n=N)``  (circular correlation),
- ``dW_k = m_k * conj(X_k) * rfft(g)_k / N`` summed over the batch, where
  ``m_k`` doubles interior bins to account for the conjugate-symmetric
  mirror half of the spectrum (DC and, for even N, the Nyquist bin appear
  once; their imaginary parts receive zero gradient).

Both the values and the gradients are cross-checked in the test suite
against :func:`spectral_filter_reference`, an implementation composed
purely of primitive autograd ops through explicit DFT matrices, and
against central finite differences.

Workspace contract
------------------
All ``L`` mixer layers of a step share one ``(B, N, d)`` geometry, so
both ops route their transient frequency-domain products (``X * filt``
forward, ``rfft(g) * conj(filt)`` and ``conj(X) * rfft(g)`` backward)
through the shared per-step workspace
(:mod:`repro.autograd.workspace`) instead of allocating a fresh
``(B, M, d)`` complex array per call.  Only the forward spectrum — the
one array the backward closure genuinely needs later — is kept per
layer.  Dtype contract: float32 inputs keep the whole pipeline in
``complex64``, float64 in ``complex128``; scratch reuse silently falls
back to allocation when input dtypes disagree (mixed-precision calls),
so values never change.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.autograd import functional as F
from repro.autograd.graph import record_node
from repro.autograd.tensor import Tensor, as_tensor, is_grad_enabled
from repro.autograd.workspace import get_workspace

try:  # pragma: no cover - exercised implicitly by every spectral test
    import scipy.fft as _scipy_fft
except ImportError:  # pragma: no cover - numpy fallback environments
    _scipy_fft = None

__all__ = [
    "num_frequency_bins",
    "spectral_filter",
    "spectral_filter_mixed",
    "combined_filter",
    "spectral_filter_reference",
    "dft_matrices",
]


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


#: Cap (in bytes) on the real-signal operand of one numpy pocketfft
#: call.  numpy's rfft/irfft stream the strided axis-1 transforms ~1.8x
#: slower once the operand spills the L2 cache, so large batches — the
#: stacked ``(3B, N, d)`` multi-view geometry in particular — are
#: transformed in row blocks that stay cache-resident.  Each length-N
#: transform is independent, so blocking is value-identical to one full
#: call.  With the scipy backend (preferred when available: its pypocketfft
#: computes float32 transforms natively in single precision, ~5x numpy's
#: double-internal path at this geometry, and caches plan/twiddle state)
#: full-width calls are already cache-clean, so blocking is numpy-only.
_FFT_BLOCK_BYTES = 1 << 18


def _fft_block_rows(shape: Tuple[int, ...], itemsize: int) -> int:
    """Rows per blocked FFT call for a ``(rows, N, d)`` real operand."""
    row_bytes = max(1, int(np.prod(shape[1:])) * itemsize)
    return max(1, _FFT_BLOCK_BYTES // row_bytes)


def _rfft(x: np.ndarray, m: int) -> np.ndarray:
    """``rfft(x, axis=1)`` via scipy when available, blocked numpy otherwise."""
    if _scipy_fft is not None:
        return _scipy_fft.rfft(x, axis=1)
    rows = x.shape[0]
    block = _fft_block_rows(x.shape, x.dtype.itemsize)
    if rows <= block:
        return np.fft.rfft(x, axis=1)
    out = np.empty(
        (rows, m, x.shape[2]), dtype=np.result_type(x.dtype, np.complex64)
    )
    for i in range(0, rows, block):
        out[i : i + block] = np.fft.rfft(x[i : i + block], axis=1)
    return out


def _irfft(spec: np.ndarray, n: int) -> np.ndarray:
    """``irfft(spec, n, axis=1)`` on the same backend policy as :func:`_rfft`."""
    if _scipy_fft is not None:
        return _scipy_fft.irfft(spec, n=n, axis=1)
    return np.fft.irfft(spec, n=n, axis=1)


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
        return _irfft(_mul_into(spectrum, filt, tag), n)
    out = np.empty((rows, n, spectrum.shape[2]), dtype=real_dtype)
    ws = get_workspace()
    for i in range(0, rows, block):
        j = min(i + block, rows)
        prod = np.multiply(
            spectrum[i:j], filt, out=ws.scratch(tag, (j - i,) + spectrum.shape[1:], spectrum.dtype)
        )
        out[i:j] = _irfft(prod, n)
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


def spectral_filter(x, w_real, w_imag, mask) -> Tensor:
    """Apply a learnable complex frequency filter to a real sequence.

    Parameters
    ----------
    x:
        Real tensor of shape ``(B, N, d)`` (time domain).
    w_real, w_imag:
        Real tensors of shape ``(M, d)`` holding the complex filter,
        where ``M = N // 2 + 1``.
    mask:
        Plain 0/1 array of shape ``(M,)`` or ``(M, 1)`` selecting the
        frequency band this layer is allowed to touch (the sliding
        window of the frequency ramp structure).

    Returns
    -------
    Tensor
        Real tensor of shape ``(B, N, d)``.
    """
    x, w_real, w_imag = as_tensor(x), as_tensor(w_real), as_tensor(w_imag)
    if x.ndim != 3:
        raise ValueError(f"x must be (B, N, d), got shape {x.shape}")
    n = x.shape[1]
    m = num_frequency_bins(n)
    if w_real.shape != w_imag.shape:
        raise ValueError("w_real and w_imag must share a shape")
    if w_real.shape[0] != m:
        raise ValueError(
            f"filter has {w_real.shape[0]} bins but sequence length {n} needs {m}"
        )
    mask = np.asarray(mask, dtype=x.dtype)
    if mask.ndim == 1:
        mask = mask[:, None]
    if mask.shape[0] != m:
        raise ValueError(f"mask must have {m} bins, got {mask.shape[0]}")

    filt = spectrum = None

    def forward():
        # Replay closure: re-reads the parameter and input arrays on
        # every call, so a static-graph replay picks up post-optimizer
        # weights; ``filt``/``spectrum`` are rebound for the backward
        # closure, which shares these cells.
        nonlocal filt, spectrum
        filt = (w_real.data + 1j * w_imag.data) * mask  # (M, d) complex
        spectrum = _rfft(x.data, m)  # (B, M, d) complex
        return _filtered_irfft(spectrum, filt, n, "spectral.prod").astype(x.dtype, copy=False)

    out = forward()

    if not (
        is_grad_enabled()
        and any(t.requires_grad or t._backward is not None for t in (x, w_real, w_imag))
    ):
        result = Tensor(out)
        record_node(result, forward, "spectral_filter")
        return result

    mirror = _mirror_weights(n, x.dtype)[:, None]  # (M, 1)

    def backward(grad):
        grad_spec = _rfft(grad, m)  # (B, M, d)
        gx = _filtered_irfft(grad_spec, np.conj(filt), n, "spectral.gprod").astype(
            x.dtype, copy=False
        )
        # dW accumulated over the batch; mirror weights fold in the
        # conjugate-symmetric half of the full spectrum.  The blocked
        # product reuses the grad-side scratch buffer (its previous
        # contents were consumed by the irfft above).
        dw = _conj_mul_batch_sum(spectrum, grad_spec, "spectral.gprod") * (mirror / n)
        dw = dw * mask  # gradient only flows inside the band
        dw_real = dw.real.astype(x.dtype, copy=False)
        dw_imag = dw.imag.astype(x.dtype, copy=False)
        # DC (and Nyquist for even N) imaginary parts do not affect the
        # real output; zero their gradients explicitly.
        dw_imag[0] = 0.0
        if n % 2 == 0:
            dw_imag[-1] = 0.0
        return gx, dw_real, dw_imag

    result = Tensor(out, _parents=(x, w_real, w_imag), _backward=backward)
    record_node(result, forward, "spectral_filter")
    return result


def _as_column_mask(mask, m: int, dtype) -> np.ndarray:
    """Normalize a 0/1 band mask to an ``(M, 1)`` array of ``dtype``."""
    mask = np.asarray(mask, dtype=dtype)
    if mask.ndim == 1:
        mask = mask[:, None]
    if mask.shape[0] != m:
        raise ValueError(f"mask must have {m} bins, got {mask.shape[0]}")
    return mask


def combined_filter(
    dfs_real, dfs_imag, dfs_mask, sfs_real, sfs_imag, sfs_mask, gamma: float
) -> np.ndarray:
    """The mixed complex filter ``(1-γ)·mask_D·W_D + γ·mask_S·W_S``.

    By linearity of the DFT, mixing the two filtered spectra (Eqs.
    26-27) equals filtering once with this combined mask — which is what
    lets :func:`spectral_filter_mixed` run the whole mixer block on a
    single FFT pair.  Returns a plain complex ``(M, d)`` array; callers
    on the training hot path cache it per layer (it only changes when
    the parameters do, i.e. once per optimizer step, while the model
    encodes every batch three times under the contrastive objective).
    """
    dfs_real, dfs_imag = as_tensor(dfs_real), as_tensor(dfs_imag)
    sfs_real, sfs_imag = as_tensor(sfs_real), as_tensor(sfs_imag)
    m = dfs_real.shape[0]
    dfs_mask = _as_column_mask(dfs_mask, m, dfs_real.dtype)
    sfs_mask = _as_column_mask(sfs_mask, m, sfs_real.dtype)
    return (1.0 - gamma) * dfs_mask * (dfs_real.data + 1j * dfs_imag.data) + gamma * sfs_mask * (
        sfs_real.data + 1j * sfs_imag.data
    )


def spectral_filter_mixed(
    x,
    dfs_real,
    dfs_imag,
    dfs_mask,
    sfs_real,
    sfs_imag,
    sfs_mask,
    gamma: float,
    filt: np.ndarray | None = None,
    filt_provider=None,
) -> Tensor:
    """Fused DFS + SFS filter mixing on a single FFT pair (Eqs. 21-27).

    Semantically identical to::

        (1 - gamma) * spectral_filter(x, dfs_real, dfs_imag, dfs_mask)
            + gamma * spectral_filter(x, sfs_real, sfs_imag, sfs_mask)

    but runs one ``rfft``/``irfft`` pair forward (instead of two of
    each) and one pair backward, applying the precombined complex
    filter in the frequency domain.  The backward pass reuses the
    shared spectrum product for both branches::

        dx   = irfft(rfft(g) * conj(filt))
        base = mirror/N * Σ_batch conj(X) · rfft(g)
        dW_D = (1-γ) · mask_D · base      dW_S = γ · mask_S · base

    Parameters mirror :func:`spectral_filter`, doubled per branch;
    ``filt`` optionally injects a cached :func:`combined_filter` result
    so repeated encodes of one training step skip recombination.
    ``filt_provider`` is the replay-safe variant of the same
    optimization: a zero-argument callable returning the combined
    filter, invoked on *every* forward evaluation (build and static
    -graph replay alike) so replays observe post-optimizer weights;
    it takes precedence over ``filt``.
    """
    x = as_tensor(x)
    dfs_real, dfs_imag = as_tensor(dfs_real), as_tensor(dfs_imag)
    sfs_real, sfs_imag = as_tensor(sfs_real), as_tensor(sfs_imag)
    if x.ndim != 3:
        raise ValueError(f"x must be (B, N, d), got shape {x.shape}")
    n = x.shape[1]
    m = num_frequency_bins(n)
    for name, w in (
        ("dfs_real", dfs_real),
        ("dfs_imag", dfs_imag),
        ("sfs_real", sfs_real),
        ("sfs_imag", sfs_imag),
    ):
        if w.shape != dfs_real.shape:
            raise ValueError(f"{name} shape {w.shape} differs from dfs_real {dfs_real.shape}")
    if dfs_real.shape[0] != m:
        raise ValueError(
            f"filters have {dfs_real.shape[0]} bins but sequence length {n} needs {m}"
        )
    dfs_mask = _as_column_mask(dfs_mask, m, x.dtype)
    sfs_mask = _as_column_mask(sfs_mask, m, x.dtype)
    if filt is not None and filt_provider is None and filt.shape != dfs_real.shape:
        raise ValueError(f"cached filter shape {filt.shape} does not match {dfs_real.shape}")

    filt_used = spectrum = None

    def forward():
        # Replay closure: the combined filter is re-fetched (provider)
        # or recombined from the live parameter arrays every call, so a
        # static-graph replay sees post-optimizer weights; a static
        # ``filt`` snapshot is kept as-is (its call sites only pass it
        # for repeated encodes within one step, which a capture never
        # spans — see FilterMixerLayer).
        nonlocal filt_used, spectrum
        if filt_provider is not None:
            filt_used = filt_provider()
        elif filt is not None:
            filt_used = filt
        else:
            filt_used = combined_filter(
                dfs_real, dfs_imag, dfs_mask, sfs_real, sfs_imag, sfs_mask, gamma
            )
        spectrum = _rfft(x.data, m)  # (B, M, d) complex
        return _filtered_irfft(spectrum, filt_used, n, "spectral.prod").astype(
            x.dtype, copy=False
        )

    out = forward()
    if filt_used.shape != dfs_real.shape:
        raise ValueError(
            f"cached filter shape {filt_used.shape} does not match {dfs_real.shape}"
        )

    params = (dfs_real, dfs_imag, sfs_real, sfs_imag)
    if not (
        is_grad_enabled()
        and any(t.requires_grad or t._backward is not None for t in (x,) + params)
    ):
        result = Tensor(out)
        record_node(result, forward, "spectral_filter_mixed")
        return result

    mirror = _mirror_weights(n, x.dtype)[:, None]  # (M, 1)

    def backward(grad):
        grad_spec = _rfft(grad, m)  # (B, M, d)
        gx = _filtered_irfft(grad_spec, np.conj(filt_used), n, "spectral.gprod").astype(
            x.dtype, copy=False
        )
        # One batch-summed spectrum product serves both branches; the
        # blocked product reuses the grad-side scratch (each block is
        # consumed by the irfft above before the sum re-fills it).
        base = _conj_mul_batch_sum(spectrum, grad_spec, "spectral.gprod") * (mirror / n)
        grads = [gx]
        for weight, mask in ((1.0 - gamma, dfs_mask), (gamma, sfs_mask)):
            dw = base * (weight * mask)
            dw_real = dw.real.astype(x.dtype, copy=False)
            dw_imag = dw.imag.astype(x.dtype, copy=False)
            # DC (and Nyquist for even N) imaginary parts do not affect
            # the real output; zero their gradients explicitly.
            dw_imag[0] = 0.0
            if n % 2 == 0:
                dw_imag[-1] = 0.0
            grads.extend((dw_real, dw_imag))
        return tuple(grads)

    result = Tensor(out, _parents=(x,) + params, _backward=backward)
    record_node(result, forward, "spectral_filter_mixed")
    return result


def dft_matrices(n: int, dtype=np.float64) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Explicit real DFT matrices mapping time <-> half spectrum.

    Returns ``(C, S, IC, IS)`` such that for a real signal ``x`` of
    length ``n`` with half spectrum ``X = Xr + i*Xi``::

        Xr = C @ x          Xi = S @ x
        x  = IC @ Xr + IS @ Xi

    These are used by :func:`spectral_filter_reference` and by the test
    suite to cross-validate the fused FFT implementation.
    """
    m = num_frequency_bins(n)
    k = np.arange(m)[:, None]
    t = np.arange(n)[None, :]
    angle = 2.0 * np.pi * k * t / n
    cos_mat = np.cos(angle).astype(dtype)
    sin_mat = -np.sin(angle).astype(dtype)
    mirror = _mirror_weights(n)[:, None]
    # Inverse: x_t = (1/n) * sum_k mirror_k * (Xr_k cos - Xi_k sin)
    icos = (mirror * np.cos(angle)).T.astype(dtype) / n
    isin = (-(mirror * np.sin(angle))).T.astype(dtype) / n
    return cos_mat, sin_mat, icos, isin


def spectral_filter_reference(x, w_real, w_imag, mask) -> Tensor:
    """Reference implementation built only from primitive autograd ops.

    Mathematically identical to :func:`spectral_filter` but O(N^2):
    the DFT is performed through explicit cosine/sine matrices so that
    gradient correctness follows from the primitive ops.  Used in tests.
    """
    x, w_real, w_imag = as_tensor(x), as_tensor(w_real), as_tensor(w_imag)
    n = x.shape[1]
    mask = np.asarray(mask, dtype=x.dtype)
    if mask.ndim == 1:
        mask = mask[:, None]
    cos_mat, sin_mat, icos, isin = dft_matrices(n, dtype=x.dtype)

    # (B, N, d) -> (B, M, d): contract the time axis.
    xt = F.transpose(x, (0, 2, 1))  # (B, d, N)
    xr = F.transpose(F.matmul(xt, Tensor(cos_mat.T)), (0, 2, 1))  # (B, M, d)
    xi = F.transpose(F.matmul(xt, Tensor(sin_mat.T)), (0, 2, 1))

    wr = F.mul(w_real, Tensor(mask))
    wi = F.mul(w_imag, Tensor(mask))
    # Zero the imaginary filter part on bins whose mirror weight is 1
    # (DC / Nyquist): irfft ignores those components for real output.
    anti = _mirror_weights(n)[:, None] - 1.0  # 0 at DC/Nyquist, 1 inside
    wi = F.mul(wi, Tensor(anti.astype(x.dtype)))

    yr = F.sub(F.mul(xr, wr), F.mul(xi, wi))
    yi = F.add(F.mul(xr, wi), F.mul(xi, wr))

    yr_t = F.transpose(yr, (0, 2, 1))  # (B, d, M)
    yi_t = F.transpose(yi, (0, 2, 1))
    out = F.add(F.matmul(yr_t, Tensor(icos.T)), F.matmul(yi_t, Tensor(isin.T)))
    return F.transpose(out, (0, 2, 1))
