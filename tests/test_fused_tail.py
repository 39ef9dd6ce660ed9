"""The fused post-norm tail of every encoder block.

Two nodes replace four-to-five-node chains on the training hot path:

- ``F.dropout_add_layer_norm(a, residual, ...)`` (``LayerNorm(a,
  residual=..., dropout=...)``) is ``layer_norm(x + dropout(a))`` or
  ``layer_norm((x + h) + dropout(a))``;
- ``F.linear_gelu(x, w, b)`` is ``gelu(linear(x, w, b))``, the FFN's
  first layer.

Declared equivalence class against the unfused chains, which stay here
as the oracles: **bitwise** on values, every gradient and the dropout
generator's end state.  Both nodes are also gradchecked in float64.
The blocked GELU kernel is pinned bitwise to the unblocked expression
sequence it replaced (:func:`reference_gelu`).
"""

import copy
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autograd import functional as F
from repro.autograd.gradcheck import gradcheck
from repro.autograd.tensor import Tensor
from repro.nn import Dropout, LayerNorm


def chain_tail(a, residual, gamma, beta, p, training, rng, seq_len):
    """The unfused oracle: dropout, left-to-right residual adds, layer norm."""
    total = residual[0]
    for r in residual[1:]:
        total = F.add(total, r)
    total = F.add(total, F.dropout(a, p, training, rng, seq_len=seq_len))
    return F.layer_norm(total, gamma, beta)


def leaves(rng, shape, dtype, count):
    return [
        Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)
        for _ in range(count)
    ]


@pytest.mark.parametrize("dtype", [np.float64, np.float32, "mixed"])
@pytest.mark.parametrize("sliced", [False, True])
@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("residuals", [1, 2])
@settings(max_examples=8, deadline=None)
@given(
    batch=st.integers(1, 4),
    length=st.integers(1, 6),
    width=st.integers(1, 9),
    kept_fraction=st.floats(0.0, 1.0),
    p=st.floats(0.05, 0.9),
    seed=st.integers(0, 2**32 - 1),
)
def test_dropout_add_layer_norm_is_the_chain(
    residuals, training, sliced, dtype, batch, length, width, kept_fraction, p, seed
):
    n = max(1, round(kept_fraction * length)) if sliced else length
    shape = (batch, n, width)
    seq_len = length if sliced else None
    base = np.float64 if dtype == "mixed" else dtype
    data = np.random.default_rng(seed)
    fused_in = leaves(data, shape, base, 1 + residuals) + leaves(data, (width,), base, 2)
    if dtype == "mixed":  # a float32 residual: the sums promote to float64
        fused_in[1] = Tensor(fused_in[1].data.astype(np.float32), requires_grad=True)
    chain_in = [Tensor(t.data.copy(), requires_grad=True) for t in fused_in]
    rng = np.random.default_rng(seed + 1)
    oracle_rng = copy.deepcopy(rng)

    a, *residual, gamma, beta = fused_in
    got = F.dropout_add_layer_norm(a, residual, gamma, beta, p, training, rng, seq_len=seq_len)
    a2, *residual2, gamma2, beta2 = chain_in
    want = chain_tail(a2, residual2, gamma2, beta2, p, training, oracle_rng, seq_len)

    assert got.dtype == want.dtype == np.dtype(base)
    np.testing.assert_array_equal(got.data, want.data)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    grad = data.standard_normal(shape).astype(got.dtype)
    got.backward(grad)
    want.backward(grad)
    for fused, chain in zip(fused_in, chain_in):
        assert fused.grad.dtype == chain.grad.dtype
        np.testing.assert_array_equal(fused.grad, chain.grad)


def test_layer_norm_module_routes_the_tail():
    """``LayerNorm(sub, residual=..., dropout=...)`` draws from the
    sibling ``Dropout``'s generator and follows its mode."""
    data = np.random.default_rng(0)
    sub, x = (Tensor(data.standard_normal((3, 4, 8))) for _ in range(2))
    norm = LayerNorm(8)
    drop = Dropout(0.4, rng=np.random.default_rng(5))
    oracle_rng = np.random.default_rng(5)
    got = norm(sub, residual=(x,), dropout=drop, seq_len=6)
    want = chain_tail(sub, (x,), norm.gamma, norm.beta, 0.4, True, oracle_rng, 6)
    np.testing.assert_array_equal(got.data, want.data)
    assert drop.rng.bit_generator.state == oracle_rng.bit_generator.state
    drop.eval()
    np.testing.assert_array_equal(
        norm(sub, residual=(x,), dropout=drop).data, norm(F.add(x, sub)).data
    )


BAD_RESIDUALS = {
    "none": [],
    "three": [np.ones((2, 3, 5))] * 3,
    "shape": [np.ones((2, 1, 5))],
}


@pytest.mark.parametrize("case", sorted(BAD_RESIDUALS))
def test_dropout_add_layer_norm_rejects_bad_residuals(case):
    with pytest.raises(ValueError, match="residuals"):
        F.dropout_add_layer_norm(
            Tensor(np.ones((2, 3, 5))), [Tensor(r) for r in BAD_RESIDUALS[case]],
            Tensor(np.ones(5)), Tensor(np.zeros(5)), 0.1, True, np.random.default_rng(0),
        )


def reference_gelu(x):
    """The unblocked GELU expression sequence (one full-size buffer per
    intermediate, ``x²`` kept for the backward)."""
    c = np.sqrt(2.0 / np.pi)
    x_sq = x * x
    inner = x_sq * x
    inner *= 0.044715
    inner += x
    inner *= c
    t = np.tanh(inner, out=inner)
    out = t + 1.0
    out *= x
    out *= 0.5

    def backward(grad):
        dinner = x_sq * (3 * 0.044715)
        dinner += 1.0
        dinner *= c
        sech_sq = t * t
        np.subtract(1.0, sech_sq, out=sech_sq)
        sech_sq *= x
        sech_sq *= 0.5
        sech_sq *= dinner
        dx = t + 1.0
        dx *= 0.5
        dx += sech_sq
        dx *= grad
        return dx

    return out, backward


@pytest.mark.parametrize("block", [7, F._ELEMENTWISE_BLOCK])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shape", [(5, 3, 8), (11, 6), (4,)])
def test_linear_gelu_is_the_chain(shape, dtype, block):
    """``linear_gelu`` against ``fc1 → F.gelu``, and both against the
    unblocked GELU, bitwise, whatever the elementwise block size."""
    data = np.random.default_rng(sum(shape))
    width = shape[-1]
    fused_in = [
        Tensor(data.standard_normal(shape).astype(dtype), requires_grad=True),
        Tensor(data.standard_normal((width, 2 * width)).astype(dtype), requires_grad=True),
        Tensor(data.standard_normal(2 * width).astype(dtype), requires_grad=True),
    ]
    chain_in = [Tensor(t.data.copy(), requires_grad=True) for t in fused_in]
    with mock.patch.object(F, "_ELEMENTWISE_BLOCK", block):
        got = F.linear_gelu(*fused_in)
        want = F.gelu(F.linear(*chain_in))
        grad = data.standard_normal(got.shape).astype(dtype)
        got.backward(grad)
        want.backward(grad)
    z = F.linear(*fused_in).data
    ref, ref_backward = reference_gelu(z)
    assert got.dtype == want.dtype == np.dtype(dtype)
    np.testing.assert_array_equal(got.data, want.data)
    np.testing.assert_array_equal(got.data, ref)
    for fused, chain in zip(fused_in, chain_in):
        np.testing.assert_array_equal(fused.grad, chain.grad)
    dz = ref_backward(grad).reshape(-1, 2 * width)
    np.testing.assert_array_equal(
        fused_in[0].grad, (dz @ fused_in[1].data.T).reshape(shape)
    )


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("residuals", [1, 2])
def test_dropout_add_layer_norm_gradcheck(residuals, training):
    data = np.random.default_rng(4)
    inputs = leaves(data, (2, 3, 6), np.float64, 1 + residuals) + leaves(
        data, (6,), np.float64, 2
    )
    weights = Tensor(data.standard_normal((2, 3, 6)))

    def tail(a, *rest):
        *residual, gamma, beta = rest
        # A fresh generator per call: every evaluation draws one mask.
        out = F.dropout_add_layer_norm(
            a, residual, gamma, beta, 0.3, training, np.random.default_rng(11)
        )
        return F.mul(out, weights)

    gradcheck(tail, inputs)


def test_linear_gelu_gradcheck():
    data = np.random.default_rng(5)
    x = Tensor(data.standard_normal((2, 3, 4)), requires_grad=True)
    w = Tensor(data.standard_normal((4, 5)), requires_grad=True)
    b = Tensor(data.standard_normal(5), requires_grad=True)
    weights = Tensor(data.standard_normal((2, 3, 5)))
    gradcheck(lambda *t: F.mul(F.linear_gelu(*t), weights), [x, w, b])
