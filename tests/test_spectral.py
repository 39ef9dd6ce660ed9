"""Tests for the spectral-filter op behind every filter-mixer block.

Values and gradients are checked against the O(N²) DFT-matrix oracle in
``spectral_reference.py`` and against central finite differences.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autograd import functional as F
from repro.autograd.gradcheck import gradcheck
from repro.autograd.spectral import num_frequency_bins, spectral_filter
from repro.autograd.tensor import Tensor
from spectral_reference import dft_matrices, spectral_filter_reference


def make_inputs(rng, batch=2, n=8, d=3):
    m = num_frequency_bins(n)
    x = Tensor(rng.normal(size=(batch, n, d)), requires_grad=True)
    wr = Tensor(rng.normal(size=(m, d)), requires_grad=True)
    wi = Tensor(rng.normal(size=(m, d)), requires_grad=True)
    return x, wr, wi, m


def one_branch(wr, wi, mask):
    """A single branch at weight 1: ``scale = 1·mask`` as an (M, 1) column."""
    return [(np.asarray(mask, dtype=float)[:, None], wr, wi)]


class TestBinCount:
    def test_even(self):
        assert num_frequency_bins(8) == 5

    def test_odd(self):
        assert num_frequency_bins(7) == 4

    def test_matches_paper_formula_for_even_n(self):
        # Paper: M = ceil(N/2) + 1; for even N this equals N//2 + 1.
        for n in (2, 4, 8, 50, 100):
            assert num_frequency_bins(n) == n // 2 + 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            num_frequency_bins(0)


class TestForward:
    def test_identity_filter_reconstructs_input(self, rng):
        """W = 1 + 0i on all bins must be a perfect round trip."""
        x, _, _, m = make_inputs(rng)
        ones = Tensor(np.ones((m, 3)))
        zeros = Tensor(np.zeros((m, 3)))
        out = spectral_filter(x, one_branch(ones, zeros, np.ones(m)))
        assert np.allclose(out.data, x.data, atol=1e-12)

    def test_zero_mask_kills_everything(self, rng):
        x, wr, wi, m = make_inputs(rng)
        out = spectral_filter(x, one_branch(wr, wi, np.zeros(m)))
        assert np.allclose(out.data, 0.0)

    def test_dc_only_mask_gives_constant_over_time(self, rng):
        x, wr, wi, m = make_inputs(rng)
        mask = np.zeros(m)
        mask[0] = 1.0
        out = spectral_filter(x, one_branch(wr, wi, mask))
        # Only the DC bin survives -> output constant along time axis.
        assert np.allclose(out.data, out.data[:, :1, :], atol=1e-10)

    @pytest.mark.parametrize(
        "batch,n,d,dtype,full_mask,atol",
        [
            (2, 10, 3, np.float64, False, 1e-10),  # even N, random band
            (2, 9, 3, np.float64, True, 1e-10),  # odd N
            (64, 64, 64, np.float32, True, 1e-3),  # benchmark scale, float32
        ],
        ids=["even_n", "odd_n", "float32_64x64x64"],
    )
    def test_matches_reference(self, batch, n, d, dtype, full_mask, atol):
        r = np.random.default_rng(n)
        m = num_frequency_bins(n)
        x = Tensor(r.normal(size=(batch, n, d)).astype(dtype), requires_grad=True)
        wr = Tensor(r.normal(size=(m, d)).astype(dtype), requires_grad=True)
        wi = Tensor(r.normal(size=(m, d)).astype(dtype), requires_grad=True)
        mask = np.ones(m) if full_mask else (r.random(m) > 0.5).astype(float)
        fast = spectral_filter(x, one_branch(wr, wi, mask))
        ref = spectral_filter_reference(x, one_branch(wr, wi, mask))
        assert fast.dtype == ref.dtype == dtype
        assert np.allclose(fast.data, ref.data, atol=atol)

    def test_output_is_real_dtype(self, rng):
        x, wr, wi, m = make_inputs(rng)
        out = spectral_filter(x, one_branch(wr, wi, np.ones(m)))
        assert out.data.dtype.kind == "f"

    def test_linearity_in_input(self, rng):
        x1, wr, wi, m = make_inputs(rng)
        x2 = Tensor(rng.normal(size=x1.shape))
        mask = np.ones(m)
        lhs = spectral_filter(Tensor(x1.data + 2.0 * x2.data), one_branch(wr, wi, mask))
        a = spectral_filter(Tensor(x1.data), one_branch(wr, wi, mask))
        b = spectral_filter(x2, one_branch(wr, wi, mask))
        assert np.allclose(lhs.data, a.data + 2.0 * b.data, atol=1e-10)

    def test_equals_circular_convolution(self, rng):
        """The op must equal a time-domain circular conv with the kernel."""
        x, wr, wi, m = make_inputs(rng, batch=1, n=8, d=1)
        mask = np.ones(m)
        out = spectral_filter(x, one_branch(wr, wi, mask))
        filt = (wr.data + 1j * wi.data)[:, 0]
        kernel = np.fft.irfft(filt, n=8)
        expected = np.real(np.fft.ifft(np.fft.fft(x.data[0, :, 0]) * np.fft.fft(kernel)))
        assert np.allclose(out.data[0, :, 0], expected, atol=1e-10)

    def test_shape_validation(self, rng):
        x, wr, wi, m = make_inputs(rng)
        with pytest.raises(ValueError):
            spectral_filter(Tensor(np.zeros((2, 8))), one_branch(wr, wi, np.ones(m)))
        with pytest.raises(ValueError):
            spectral_filter(x, one_branch(Tensor(np.zeros((m + 1, 3))), wi, np.ones(m)))
        with pytest.raises(ValueError):
            spectral_filter(x, one_branch(wr, wi, np.ones(m + 2)))
        with pytest.raises(ValueError):  # a scale must be an (M, 1) column
            spectral_filter(x, [(np.ones(m), wr, wi)])

    def test_rejects_an_empty_branch_list(self, rng):
        x, _, _, _ = make_inputs(rng)
        with pytest.raises(ValueError, match=r"at least one branch.*\(2, 8, 3\)"):
            spectral_filter(x, [])

    @pytest.mark.parametrize("last", [False, True])
    def test_rejects_a_filter_narrower_than_the_hidden_dim(self, rng, last):
        """A ``(M, 1)`` filter on ``(B, N, 4)`` input used to broadcast
        across ``d`` and hand back an ``(M, 4)`` gradient."""
        x = Tensor(rng.normal(size=(2, 8, 4)), requires_grad=True)
        m = num_frequency_bins(8)
        wr, wi = Tensor(rng.normal(size=(m, 1))), Tensor(rng.normal(size=(m, 1)))
        with pytest.raises(ValueError, match=r"\(5, 1\).*\(2, 8, 4\).*\(5, 4\)"):
            spectral_filter(x, one_branch(wr, wi, np.ones(m)), last=last)


class TestGradients:
    def test_gradcheck_banded_mask_even(self, rng):
        x, wr, wi, m = make_inputs(rng, n=8)
        mask = np.zeros(m)
        mask[1:4] = 1.0
        gradcheck(lambda a, b, c: spectral_filter(a, one_branch(b, c, mask)), [x, wr, wi])

    def test_gradcheck_full_mask_odd(self, rng):
        x, wr, wi, m = make_inputs(rng, n=7)
        gradcheck(lambda a, b, c: spectral_filter(a, one_branch(b, c, np.ones(m))), [x, wr, wi])

    def test_fused_and_reference_gradients_agree(self, rng):
        mask = None
        x, wr, wi, m = make_inputs(rng, n=10)
        mask = np.zeros(m)
        mask[2:5] = 1.0

        out = spectral_filter(x, one_branch(wr, wi, mask))
        out.backward(np.ones_like(out.data))
        fused = (x.grad.copy(), wr.grad.copy(), wi.grad.copy())

        x.zero_grad(), wr.zero_grad(), wi.zero_grad()
        ref = spectral_filter_reference(x, one_branch(wr, wi, mask))
        ref.backward(np.ones_like(ref.data))

        assert np.allclose(fused[0], x.grad, atol=1e-10)
        assert np.allclose(fused[1], wr.grad, atol=1e-10)
        assert np.allclose(fused[2], wi.grad, atol=1e-10)

    def test_masked_bins_receive_no_filter_gradient(self, rng):
        x, wr, wi, m = make_inputs(rng)
        mask = np.zeros(m)
        mask[2] = 1.0
        out = spectral_filter(x, one_branch(wr, wi, mask))
        out.backward(np.ones_like(out.data))
        outside = np.ones(m, dtype=bool)
        outside[2] = False
        assert np.allclose(wr.grad[outside], 0.0)
        assert np.allclose(wi.grad[outside], 0.0)

    def test_dc_imaginary_gradient_is_zero(self, rng):
        x, wr, wi, m = make_inputs(rng, n=8)
        out = spectral_filter(x, one_branch(wr, wi, np.ones(m)))
        out.backward(np.ones_like(out.data))
        assert np.allclose(wi.grad[0], 0.0)
        assert np.allclose(wi.grad[-1], 0.0)  # Nyquist for even N

    @given(
        n=st.integers(4, 12),
        d=st.integers(1, 3),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=15, deadline=None)
    def test_fused_matches_reference_property(self, n, d, seed):
        r = np.random.default_rng(seed)
        m = num_frequency_bins(n)
        x = Tensor(r.normal(size=(2, n, d)), requires_grad=True)
        wr = Tensor(r.normal(size=(m, d)), requires_grad=True)
        wi = Tensor(r.normal(size=(m, d)), requires_grad=True)
        mask = (r.random(m) > 0.3).astype(float)
        fast = spectral_filter(x, one_branch(wr, wi, mask))
        ref = spectral_filter_reference(x, one_branch(wr, wi, mask))
        assert np.allclose(fast.data, ref.data, atol=1e-9)


def make_mixed_inputs(rng, batch=2, n=8, d=3):
    """x plus independent DFS/SFS filter pairs for a two-branch call."""
    m = num_frequency_bins(n)
    x = Tensor(rng.normal(size=(batch, n, d)), requires_grad=True)
    params = [Tensor(rng.normal(size=(m, d)), requires_grad=True) for _ in range(4)]
    return (x, *params, m)


def mask_pair(m, kind, rng):
    """DFS/SFS window pairs covering the interesting overlap regimes."""
    if kind == "disjoint":
        dfs, sfs = np.zeros(m), np.zeros(m)
        dfs[: m // 2] = 1.0
        sfs[m // 2 :] = 1.0
    elif kind == "overlapping":
        dfs = (rng.random(m) > 0.3).astype(float)
        sfs = (rng.random(m) > 0.3).astype(float)
        sfs[m // 3] = dfs[m // 3] = 1.0  # force at least one shared bin
    else:  # full
        dfs, sfs = np.ones(m), np.ones(m)
    return dfs, sfs


def two_branches(dr, di, dfs_mask, sr, si, sfs_mask, gamma):
    """The DFS+SFS branches a two-branch mixer layer passes."""
    return [
        ((1.0 - gamma) * np.asarray(dfs_mask, dtype=float)[:, None], dr, di),
        (gamma * np.asarray(sfs_mask, dtype=float)[:, None], sr, si),
    ]


def mixed_reference(x, dr, di, dfs_mask, sr, si, sfs_mask, gamma):
    """(1-γ)·ref_D + γ·ref_S through the O(N²) DFT-matrix reference."""
    a = spectral_filter_reference(x, one_branch(dr, di, dfs_mask))
    b = spectral_filter_reference(x, one_branch(sr, si, sfs_mask))
    return F.add(F.mul(a, 1.0 - gamma), F.mul(b, gamma))


class TestMixedForward:
    @pytest.mark.parametrize("n", [8, 9])
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("kind", ["disjoint", "overlapping"])
    def test_matches_reference(self, rng, n, gamma, kind):
        x, dr, di, sr, si, m = make_mixed_inputs(rng, n=n)
        dfs_mask, sfs_mask = mask_pair(m, kind, rng)
        fused = spectral_filter(x, two_branches(dr, di, dfs_mask, sr, si, sfs_mask, gamma))
        ref = mixed_reference(x, dr, di, dfs_mask, sr, si, sfs_mask, gamma)
        assert np.allclose(fused.data, ref.data, atol=1e-10)

    def test_matches_two_spectral_filter_calls(self, rng):
        x, dr, di, sr, si, m = make_mixed_inputs(rng, n=10)
        dfs_mask, sfs_mask = mask_pair(m, "overlapping", rng)
        fused = spectral_filter(x, two_branches(dr, di, dfs_mask, sr, si, sfs_mask, 0.3))
        a = spectral_filter(x, one_branch(dr, di, dfs_mask))
        b = spectral_filter(x, one_branch(sr, si, sfs_mask))
        assert np.allclose(fused.data, 0.7 * a.data + 0.3 * b.data, atol=1e-12)

    def test_recombines_live_parameters_every_call(self, rng):
        """An in-place weight edit shows up in the very next call."""
        x, dr, di, sr, si, m = make_mixed_inputs(rng)
        dfs_mask, sfs_mask = mask_pair(m, "overlapping", rng)
        branches = two_branches(dr, di, dfs_mask, sr, si, sfs_mask, 0.5)
        before = spectral_filter(x, branches).data.copy()
        dr.data += 1.0
        after = spectral_filter(x, branches).data
        assert not np.allclose(before, after)
        fresh = [(s, Tensor(a.data.copy()), Tensor(b.data.copy())) for s, a, b in branches]
        assert np.array_equal(after, spectral_filter(x, fresh).data)

    def test_shape_validation(self, rng):
        x, dr, di, sr, si, m = make_mixed_inputs(rng)
        with pytest.raises(ValueError):
            spectral_filter(
                Tensor(np.zeros((2, 8))), two_branches(dr, di, np.ones(m), sr, si, np.ones(m), 0.5)
            )
        with pytest.raises(ValueError):
            spectral_filter(x, two_branches(dr, di, np.ones(m + 1), sr, si, np.ones(m), 0.5))
        with pytest.raises(ValueError):
            spectral_filter(
                x, two_branches(Tensor(np.zeros((m + 1, 3))), di, np.ones(m), sr, si, np.ones(m), 0.5)
            )


class TestMixedGradients:
    @pytest.mark.parametrize("n", [8, 9])
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("kind", ["disjoint", "overlapping"])
    def test_gradcheck_finite_differences(self, rng, n, gamma, kind):
        x, dr, di, sr, si, m = make_mixed_inputs(rng, n=n)
        dfs_mask, sfs_mask = mask_pair(m, kind, rng)
        gradcheck(
            lambda a, b, c, d, e: spectral_filter(
                a, two_branches(b, c, dfs_mask, d, e, sfs_mask, gamma)
            ),
            [x, dr, di, sr, si],
        )

    @pytest.mark.parametrize("n", [8, 9])
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_fused_and_reference_gradients_agree(self, rng, n, gamma):
        x, dr, di, sr, si, m = make_mixed_inputs(rng, n=n)
        dfs_mask, sfs_mask = mask_pair(m, "overlapping", rng)
        tensors = (x, dr, di, sr, si)

        out = spectral_filter(x, two_branches(dr, di, dfs_mask, sr, si, sfs_mask, gamma))
        seed_grad = np.ones_like(out.data)
        out.backward(seed_grad)
        fused = [t.grad.copy() if t.grad is not None else None for t in tensors]

        for t in tensors:
            t.zero_grad()
        ref = mixed_reference(x, dr, di, dfs_mask, sr, si, sfs_mask, gamma)
        ref.backward(seed_grad)
        for got, t in zip(fused, tensors):
            expected = t.grad if t.grad is not None else np.zeros_like(t.data)
            got = got if got is not None else np.zeros_like(t.data)
            assert np.allclose(got, expected, atol=1e-10)

    def test_masked_bins_receive_no_filter_gradient(self, rng):
        x, dr, di, sr, si, m = make_mixed_inputs(rng)
        dfs_mask, sfs_mask = mask_pair(m, "disjoint", rng)
        out = spectral_filter(x, two_branches(dr, di, dfs_mask, sr, si, sfs_mask, 0.5))
        out.backward(np.ones_like(out.data))
        assert np.allclose(dr.grad[dfs_mask == 0], 0.0)
        assert np.allclose(di.grad[dfs_mask == 0], 0.0)
        assert np.allclose(sr.grad[sfs_mask == 0], 0.0)
        assert np.allclose(si.grad[sfs_mask == 0], 0.0)

    def test_dc_and_nyquist_imaginary_gradients_zero(self, rng):
        x, dr, di, sr, si, m = make_mixed_inputs(rng, n=8)
        out = spectral_filter(x, two_branches(dr, di, np.ones(m), sr, si, np.ones(m), 0.5))
        out.backward(np.ones_like(out.data))
        for imag in (di, si):
            assert np.allclose(imag.grad[0], 0.0)
            assert np.allclose(imag.grad[-1], 0.0)  # Nyquist for even N


class TestLastPosition:
    """``last=True``: row ``N-1`` only, as one weighted sum over positions."""

    @pytest.mark.parametrize("n", [8, 9])
    @pytest.mark.parametrize("num_branches", [1, 2])
    def test_matches_reference_and_the_full_op(self, rng, n, num_branches):
        x, dr, di, sr, si, m = make_mixed_inputs(rng, n=n)
        dfs_mask, sfs_mask = mask_pair(m, "overlapping", rng)
        branches = two_branches(dr, di, dfs_mask, sr, si, sfs_mask, 0.3)[:num_branches]
        tensors = (x, dr, di, sr, si)
        grad = rng.normal(size=(2, 1, 3))

        results = []
        for op in (
            lambda: spectral_filter(x, branches, last=True),
            lambda: spectral_filter_reference(x, branches, last=True),
            lambda: F.getitem(spectral_filter(x, branches), (slice(None), slice(-1, None))),
        ):
            for t in tensors:
                t.zero_grad()
            out = op()
            out.backward(grad)
            results.append([out.data] + [t.grad for t in tensors])
        got, reference, sliced = results
        assert got[0].shape == (2, 1, 3)
        for want in (reference, sliced):
            for g, w in zip(got, want):
                assert (g is None) == (w is None)
                if w is not None:
                    np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [8, 9])
    def test_gradcheck_two_branches(self, rng, n):
        x, dr, di, sr, si, m = make_mixed_inputs(rng, n=n)
        dfs_mask, sfs_mask = mask_pair(m, "overlapping", rng)
        gradcheck(
            lambda a, b, c, d, e: spectral_filter(
                a, two_branches(b, c, dfs_mask, d, e, sfs_mask, 0.3), last=True
            ),
            [x, dr, di, sr, si],
        )

    def test_gradcheck_banded_mask_odd(self, rng):
        x, wr, wi, m = make_inputs(rng, n=7)
        mask = np.zeros(m)
        mask[1:3] = 1.0
        gradcheck(lambda a, b, c: spectral_filter(a, one_branch(b, c, mask), last=True), [x, wr, wi])

    def test_float32_stays_float32(self, rng):
        x, wr, wi, m = make_inputs(rng, n=10)
        x32, wr32, wi32 = (Tensor(t.data.astype(np.float32), requires_grad=True) for t in (x, wr, wi))
        out = spectral_filter(x32, one_branch(wr32, wi32, np.ones(m)), last=True)
        out.backward(np.ones_like(out.data))
        assert out.dtype == x32.grad.dtype == wr32.grad.dtype == wi32.grad.dtype == np.float32
        want = spectral_filter(x, one_branch(wr, wi, np.ones(m)), last=True).data
        np.testing.assert_allclose(out.data, want, rtol=1e-5, atol=1e-5)

    def test_recombines_live_parameters_every_call(self, rng):
        x, wr, wi, m = make_inputs(rng)
        branches = one_branch(wr, wi, np.ones(m))
        before = spectral_filter(x, branches, last=True).data.copy()
        wr.data += 1.0
        after = spectral_filter(x, branches, last=True).data
        assert not np.allclose(before, after)
        np.testing.assert_allclose(after, spectral_filter(x, branches).data[:, -1:], atol=1e-12)


class TestDftMatrices:
    def test_roundtrip(self, rng):
        n = 10
        cos_m, sin_m, icos, isin = dft_matrices(n)
        x = rng.normal(size=n)
        xr, xi = cos_m @ x, sin_m @ x
        back = icos @ xr + isin @ xi
        assert np.allclose(back, x, atol=1e-12)

    def test_matches_numpy_rfft(self, rng):
        n = 12
        cos_m, sin_m, _, _ = dft_matrices(n)
        x = rng.normal(size=n)
        spec = np.fft.rfft(x)
        assert np.allclose(cos_m @ x, spec.real, atol=1e-12)
        assert np.allclose(sin_m @ x, spec.imag, atol=1e-12)
