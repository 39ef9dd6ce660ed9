"""Path-equivalence tests for the shared per-step compute workspace.

Covers the three hot paths the workspace subsystem rewired:

- fused Q/K/V attention vs. three separate projections (forward and
  backward, both dtypes, two geometries) — the separate-projection
  composition lives here as the oracle, :class:`UnfusedAttention`,
- shared-workspace FFT products vs. per-call allocation in the spectral
  ops (repeated/interleaved calls must not corrupt values or grads),
- dropout's bitwise fidelity to the raw-bit mask rule, its statistics
  and its ``p`` range check.

Plus the workspace primitives themselves (scratch reuse, derived-
constant caching).
"""

import warnings

import numpy as np
import pytest

from repro.autograd import functional as F
from repro.autograd.spectral import spectral_filter
from repro.autograd.tensor import Tensor
from repro.nn import MultiHeadSelfAttention
from repro.nn.workspace import get_workspace, reset_workspace

from dropout_reference import scaled_mask, threshold

DTYPES = [np.float32, np.float64]
TOL = {np.float32: 1e-4, np.float64: 1e-10}

# Two step geometries: (batch, seq_len, dim, heads)
GEOMETRIES = [(3, 6, 8, 2), (2, 10, 12, 3)]


# ----------------------------------------------------------------------
# Workspace primitives
# ----------------------------------------------------------------------

class TestStepWorkspace:
    def test_scratch_reuses_buffer_per_key(self):
        ws = reset_workspace()
        a = ws.scratch("t", (4, 5), np.float32)
        b = ws.scratch("t", (4, 5), np.float32)
        assert a is b
        assert ws.hits == 1 and ws.misses == 1

    def test_scratch_distinguishes_shape_dtype_tag(self):
        ws = reset_workspace()
        a = ws.scratch("t", (4, 5), np.float32)
        assert ws.scratch("t", (4, 5), np.float64) is not a
        assert ws.scratch("t", (5, 4), np.float32) is not a
        assert ws.scratch("u", (4, 5), np.float32) is not a

    def test_cached_builds_once(self):
        ws = reset_workspace()
        calls = []
        build = lambda: calls.append(1) or np.arange(3)
        first = ws.cached(("k", 3), build)
        second = ws.cached(("k", 3), build)
        assert first is second and len(calls) == 1

    def test_clear_drops_buffers(self):
        ws = reset_workspace()
        ws.scratch("t", (8,), np.float64)
        assert ws.nbytes() == 64
        ws.clear()
        assert ws.nbytes() == 0


# ----------------------------------------------------------------------
# Fused QKV attention vs. three separate projections
# ----------------------------------------------------------------------

class UnfusedAttention(MultiHeadSelfAttention):
    """Reference attention composed of primitive autograd ops.

    Three separate projections, an explicit score scale and separate
    head split/merge nodes, with the same parameters, block mask and
    probability-dropout stream as the fused layer.
    """

    def _split_heads(self, x, batch, length):
        x = F.reshape(x, (batch, length, self.num_heads, self.head_dim))
        return F.transpose(x, (0, 2, 1, 3))  # (B, H, N, hd)

    def forward(self, x, key_padding_mask=None):
        batch, length, _ = x.shape
        block = self._block_mask(length, key_padding_mask)
        q = self._split_heads(self.query(x), batch, length)
        k = self._split_heads(self.key(x), batch, length)
        v = self._split_heads(self.value(x), batch, length)

        scores = F.matmul(q, F.transpose(k, (0, 1, 3, 2)))  # (B, H, N, N)
        scores = F.mul(scores, 1.0 / np.sqrt(self.head_dim))
        scores = F.masked_fill(scores, block, -1e9)

        probs = self.attn_dropout(F.softmax(scores, axis=-1))
        context = F.matmul(probs, v)  # (B, H, N, hd)
        context = F.transpose(context, (0, 2, 1, 3))
        context = F.reshape(context, (batch, length, self.dim))
        return self.out(context)


def _attention_pair(dim, heads, dtype, causal=True):
    fused, unfused = (
        cls(dim, heads, dropout=0.0, causal=causal, rng=np.random.default_rng(0), dtype=dtype)
        for cls in (MultiHeadSelfAttention, UnfusedAttention)
    )
    return fused, unfused


class TestFusedAttentionEquivalence:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("padded", [False, True])
    def test_forward_backward_match(self, dtype, geometry, padded):
        batch, length, dim, heads = geometry
        fused, unfused = _attention_pair(dim, heads, dtype)
        rng = np.random.default_rng(42)
        x = rng.standard_normal((batch, length, dim)).astype(dtype)
        pad = None
        if padded:
            pad = np.zeros((batch, length), dtype=bool)
            pad[0, :2] = True
        x1 = Tensor(x, requires_grad=True)
        x2 = Tensor(x.copy(), requires_grad=True)
        out1 = fused(x1, key_padding_mask=pad)
        out2 = unfused(x2, key_padding_mask=pad)
        tol = TOL[dtype]
        np.testing.assert_allclose(out1.data, out2.data, atol=tol, rtol=tol)

        grad = rng.standard_normal(out1.shape).astype(dtype)
        out1.backward(grad)
        out2.backward(grad)
        np.testing.assert_allclose(x1.grad, x2.grad, atol=tol, rtol=tol)
        for (name, p1), (_, p2) in zip(
            fused.named_parameters(), unfused.named_parameters()
        ):
            assert p1.grad is not None, f"{name} got no grad on the fused path"
            np.testing.assert_allclose(
                p1.grad, p2.grad, atol=tol, rtol=tol, err_msg=name
            )

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_bidirectional_match(self, dtype):
        batch, length, dim, heads = GEOMETRIES[0]
        fused, unfused = _attention_pair(dim, heads, dtype, causal=False)
        x = np.random.default_rng(7).standard_normal((batch, length, dim)).astype(dtype)
        x1, x2 = Tensor(x, requires_grad=True), Tensor(x.copy(), requires_grad=True)
        out1, out2 = fused(x1), unfused(x2)
        tol = TOL[dtype]
        np.testing.assert_allclose(out1.data, out2.data, atol=tol, rtol=tol)
        out1.sum().backward()
        out2.sum().backward()
        np.testing.assert_allclose(x1.grad, x2.grad, atol=tol, rtol=tol)

    def test_same_dropout_masks_per_seed(self):
        """Both paths draw the same attention-dropout stream per seed."""
        batch, length, dim, heads = GEOMETRIES[0]
        x = np.random.default_rng(3).standard_normal((batch, length, dim))
        outs = []
        for cls in (MultiHeadSelfAttention, UnfusedAttention):
            attn = cls(
                dim, heads, dropout=0.4, causal=True,
                rng=np.random.default_rng(0), dtype=np.float64,
            )
            outs.append(attn(Tensor(x)).data)
        np.testing.assert_allclose(outs[0], outs[1], atol=1e-10)

    def test_in_place_weight_edit_reaches_next_forward(self):
        """An in-place Q weight edit, with no version bump and no
        invalidation, changes the next forward: the fused GEMM reads
        the live projection weights, never a stale concatenation."""
        batch, length, dim, heads = GEOMETRIES[0]
        fused, unfused = _attention_pair(dim, heads, np.float64)
        x = Tensor(np.random.default_rng(1).standard_normal((batch, length, dim)))
        before = fused(x).data.copy()
        for attn in (fused, unfused):
            attn.query.weight.data += 1.0
        after = fused(x).data
        assert not np.allclose(before, after)
        np.testing.assert_allclose(after, unfused(x).data, atol=1e-10)

    def test_double_backward_over_shared_graph(self):
        """Two backward passes over one graph accumulate like unfused."""
        batch, length, dim, heads = GEOMETRIES[0]
        fused, unfused = _attention_pair(dim, heads, np.float64)
        x = np.random.default_rng(5).standard_normal((batch, length, dim))
        grads = []
        for attn in (fused, unfused):
            xt = Tensor(x.copy(), requires_grad=True)
            out = attn(xt)
            out.sum().backward()
            out.sum().backward()
            grads.append(xt.grad.copy())
        np.testing.assert_allclose(grads[0], grads[1], atol=1e-10)


# ----------------------------------------------------------------------
# Shared-workspace FFT vs. per-call behaviour
# ----------------------------------------------------------------------

def _mixed_inputs(rng, n, d, dtype):
    m = n // 2 + 1
    x = Tensor(rng.standard_normal((2, n, d)).astype(dtype), requires_grad=True)
    params = [
        Tensor(rng.standard_normal((m, d)).astype(dtype) * 0.1, requires_grad=True)
        for _ in range(4)
    ]
    dfs_mask = (np.arange(m) < m // 2 + 1).astype(float)[:, None]
    sfs_mask = (np.arange(m) >= m // 2 - 1).astype(float)[:, None]
    return x, params, dfs_mask, sfs_mask


def _mixed(x, p, dm, sm, gamma):
    return spectral_filter(x, [((1.0 - gamma) * dm, p[0], p[1]), (gamma * sm, p[2], p[3])])


class TestSpectralWorkspaceReuse:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("n,d", [(8, 4), (12, 6)])
    def test_repeated_calls_reuse_scratch_and_match_composition(self, dtype, n, d):
        """Scratch reuse across calls must not change values or grads."""
        rng = np.random.default_rng(0)
        ws = reset_workspace()
        results = []
        for trial in range(2):  # second trial runs entirely on reused buffers
            x, p, dm, sm = _mixed_inputs(np.random.default_rng(3), n, d, dtype)
            fused = _mixed(x, p, dm, sm, 0.3)
            fused.sum().backward()
            results.append(
                (fused.data.copy(), x.grad.copy(), [q.grad.copy() for q in p])
            )
        for a, b in zip(results[0], results[1]):
            if isinstance(a, list):
                for ga, gb in zip(a, b):
                    np.testing.assert_array_equal(ga, gb)
            else:
                np.testing.assert_array_equal(a, b)
        assert ws.hits > 0, "spectral ops did not reuse workspace scratch"

        # Cross-check the reused-buffer result against the two-branch
        # composition of the plain op (the defining identity).
        x, p, dm, sm = _mixed_inputs(np.random.default_rng(3), n, d, dtype)
        a = spectral_filter(x, [(dm, p[0], p[1])])
        b = spectral_filter(x, [(sm, p[2], p[3])])
        composed = 0.7 * a.data + 0.3 * b.data
        tol = TOL[dtype]
        np.testing.assert_allclose(results[1][0], composed, atol=tol, rtol=tol)

    def test_interleaved_geometries_do_not_corrupt(self):
        """Alternating two geometries exercises two scratch entries."""
        outs = {}
        for trial in range(2):
            for n, d in [(8, 4), (12, 6)]:
                x, p, dm, sm = _mixed_inputs(np.random.default_rng(n + d), n, d, np.float64)
                out = _mixed(x, p, dm, sm, 0.5)
                out.sum().backward()
                key = (n, d, trial)
                outs[key] = (out.data.copy(), x.grad.copy())
        for n, d in [(8, 4), (12, 6)]:
            np.testing.assert_array_equal(outs[(n, d, 0)][0], outs[(n, d, 1)][0])
            np.testing.assert_array_equal(outs[(n, d, 0)][1], outs[(n, d, 1)][1])

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_plain_spectral_filter_backward_unchanged(self, dtype):
        """The single-branch op still matches its autograd reference."""
        from spectral_reference import spectral_filter_reference

        rng = np.random.default_rng(1)
        n, d = 8, 3
        m = n // 2 + 1
        x = rng.standard_normal((2, n, d)).astype(dtype)
        wr = (rng.standard_normal((m, d)) * 0.1).astype(dtype)
        wi = (rng.standard_normal((m, d)) * 0.1).astype(dtype)
        mask = np.ones((m, 1))
        t1 = [Tensor(v.copy(), requires_grad=True) for v in (x, wr, wi)]
        t2 = [Tensor(v.copy(), requires_grad=True) for v in (x, wr, wi)]
        out1 = spectral_filter(t1[0], [(mask, t1[1], t1[2])])
        out2 = spectral_filter_reference(t2[0], [(mask, t2[1], t2[2])])
        tol = TOL[dtype]
        np.testing.assert_allclose(out1.data, out2.data, atol=tol, rtol=tol)
        out1.sum().backward()
        out2.sum().backward()
        for a, b in zip(t1, t2):
            np.testing.assert_allclose(a.grad, b.grad, atol=tol, rtol=tol)


# ----------------------------------------------------------------------
# Dropout: the raw-bit rule, bitwise and statistically
# ----------------------------------------------------------------------

class TestDropoutPaths:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", [(4, 8, 16), (3, 5, 50), (2000,)])
    def test_default_path_bitwise_faithful(self, dtype, shape):
        """The mask is the raw-bit rule, bit for bit."""
        p = 0.3
        a = Tensor(
            np.random.default_rng(1).standard_normal(shape).astype(dtype),
            requires_grad=True,
        )
        rng = np.random.default_rng(9)
        out = F.dropout(a, p, training=True, rng=rng)
        oracle_rng = np.random.default_rng(9)
        ref_mask = scaled_mask(oracle_rng, shape, p, dtype)
        np.testing.assert_array_equal(out.data, a.data * ref_mask)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        grad = np.random.default_rng(2).standard_normal(shape).astype(dtype)
        out.backward(grad)
        np.testing.assert_array_equal(a.grad, grad * ref_mask)

    @pytest.mark.parametrize("width", [512, 50])
    def test_raw_bit_masks_are_unbiased_and_uncorrelated(self, width):
        """~10^6 draws of a stacked two-view call: the keep rate overall
        and per uint16 lane of a word, and the correlation between
        consecutive rows and between the views, each within 5σ."""
        p = 0.3
        q = threshold(p) / 65536
        rows = 10**6 // (2 * width) + 1
        out = F.dropout(Tensor(np.ones((2, rows, width))), p, True, np.random.default_rng(17))
        mask = out.data != 0

        def within_5_sigma(kept, q=q):
            sigma = np.sqrt(q * (1 - q) / kept.size)
            assert abs(kept.mean() - q) < 5 * sigma, (kept.mean(), q, sigma)

        within_5_sigma(mask)
        for lane in range(4):  # each row starts a word: lane = column % 4
            within_5_sigma(mask[..., lane::4])

        def uncorrelated(u, v):
            r = np.corrcoef(u.ravel().astype(float), v.ravel().astype(float))[0, 1]
            assert abs(r) < 5 / np.sqrt(u.size), r

        uncorrelated(mask[:, :-1], mask[:, 1:])
        uncorrelated(mask[0], mask[1])

    def test_threshold_quantizes_p(self):
        """Survivors scale by ``65536 / t``; a ``p`` whose ``t`` rounds
        to 0 raises before drawing."""
        out = F.dropout(Tensor(np.ones(4096)), 0.3, True, np.random.default_rng(0))
        assert set(np.unique(out.data)) == {0.0, 65536 / threshold(0.3)}
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        for training in (True, False):
            with pytest.raises(ValueError, match="1/65536"):
                F.dropout(Tensor(np.ones(4)), 1 - 2**-18, training, rng)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("p", [-0.2, float("nan"), 1.0])
    def test_invalid_p_raises(self, p, training):
        """Checked before the eval / ``p == 0`` shortcut, as ``Dropout(p)`` does."""
        a = Tensor(np.ones((4, 4)))
        with pytest.raises(ValueError, match="dropout probability"):
            F.dropout(a, p, training=training, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("fused", [False, True])
    def test_non_floating_input_raises_before_drawing(self, fused):
        """An integer tensor fails with a ``TypeError`` naming its dtype,
        before the scale is computed or any mask drawn."""
        a = Tensor(np.arange(6).reshape(2, 3))
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TypeError, match="int64"):
                if fused:
                    F.dropout_add_layer_norm(
                        a, (a,), Tensor(np.ones(3)), Tensor(np.zeros(3)), 0.3, True, rng
                    )
                else:
                    F.dropout(a, 0.3, True, rng)
        assert rng.bit_generator.state == before

    def test_eval_mode_still_identity(self):
        a = Tensor(np.ones((4, 4)))
        assert F.dropout(a, 0.5, training=False, rng=np.random.default_rng(0)) is a


# ----------------------------------------------------------------------
# Train-step equivalence: default path matches the seed formulation
# ----------------------------------------------------------------------

class TestGetitemBasicIndexBackward:
    def test_slice_index_matches_scatter(self):
        a = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
        out = F.getitem(a, (slice(None), -1))
        out.sum().backward()
        expected = np.zeros((2, 3, 4))
        expected[:, -1] = 1.0
        np.testing.assert_array_equal(a.grad, expected)

    def test_fancy_index_still_accumulates_duplicates(self):
        a = Tensor(np.zeros((5, 2)), requires_grad=True)
        idx = np.array([1, 1, 3])
        out = F.getitem(a, idx)
        out.sum().backward()
        assert a.grad[1, 0] == 2.0 and a.grad[3, 0] == 1.0
