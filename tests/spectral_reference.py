"""O(N²) oracle for :func:`repro.autograd.spectral.spectral_filter`.

The DFT runs through explicit cosine/sine matrices and the filter
through primitive autograd ops, so the oracle's gradients follow from
ops that are gradchecked on their own.  Test code only.
"""

from typing import Tuple

import numpy as np

from repro.autograd import functional as F
from repro.autograd.spectral import num_frequency_bins
from repro.autograd.tensor import Tensor, as_tensor


def mirror_weights(n: int) -> np.ndarray:
    """Per-bin multiplicity of the half spectrum in the full spectrum."""
    w = np.full(num_frequency_bins(n), 2.0)
    w[0] = 1.0
    if n % 2 == 0:
        w[-1] = 1.0
    return w


def dft_matrices(n: int, dtype=np.float64) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Explicit real DFT matrices mapping time <-> half spectrum.

    Returns ``(C, S, IC, IS)`` such that for a real signal ``x`` of
    length ``n`` with half spectrum ``X = Xr + i*Xi``::

        Xr = C @ x          Xi = S @ x
        x  = IC @ Xr + IS @ Xi
    """
    m = num_frequency_bins(n)
    k = np.arange(m)[:, None]
    t = np.arange(n)[None, :]
    angle = 2.0 * np.pi * k * t / n
    cos_mat = np.cos(angle).astype(dtype)
    sin_mat = -np.sin(angle).astype(dtype)
    mirror = mirror_weights(n)[:, None]
    # Inverse: x_t = (1/n) * sum_k mirror_k * (Xr_k cos - Xi_k sin)
    icos = (mirror * np.cos(angle)).T.astype(dtype) / n
    isin = (-(mirror * np.sin(angle))).T.astype(dtype) / n
    return cos_mat, sin_mat, icos, isin


def spectral_filter_reference(x, branches, last: bool = False) -> Tensor:
    """``spectral_filter(x, branches, last)`` built from primitive autograd
    ops; ``last`` keeps only the inverse-DFT rows for time ``N-1``."""
    x = as_tensor(x)
    n = x.shape[1]
    cos_mat, sin_mat, icos, isin = dft_matrices(n, dtype=x.dtype)

    # (B, N, d) -> (B, M, d): contract the time axis.
    xt = F.transpose(x, (0, 2, 1))  # (B, d, N)
    xr = F.transpose(F.matmul(xt, Tensor(cos_mat.T)), (0, 2, 1))  # (B, M, d)
    xi = F.transpose(F.matmul(xt, Tensor(sin_mat.T)), (0, 2, 1))

    wr = wi = None
    for scale, w_real, w_imag in branches:
        scale = Tensor(np.asarray(scale, dtype=x.dtype).reshape(-1, 1))
        br, bi = F.mul(as_tensor(w_real), scale), F.mul(as_tensor(w_imag), scale)
        wr = br if wr is None else F.add(wr, br)
        wi = bi if wi is None else F.add(wi, bi)
    # Zero the imaginary filter part on bins whose mirror weight is 1
    # (DC / Nyquist): irfft ignores those components for real output.
    anti = mirror_weights(n)[:, None] - 1.0  # 0 at DC/Nyquist, 1 inside
    wi = F.mul(wi, Tensor(anti.astype(x.dtype)))

    yr = F.sub(F.mul(xr, wr), F.mul(xi, wi))
    yi = F.add(F.mul(xr, wi), F.mul(xi, wr))

    if last:
        icos, isin = icos[-1:], isin[-1:]  # (1, M): time N-1 only
    yr_t = F.transpose(yr, (0, 2, 1))  # (B, d, M)
    yi_t = F.transpose(yi, (0, 2, 1))
    out = F.add(F.matmul(yr_t, Tensor(icos.T)), F.matmul(yi_t, Tensor(isin.T)))
    return F.transpose(out, (0, 2, 1))
