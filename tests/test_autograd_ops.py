"""Gradient checks and behaviour tests for every functional op."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autograd import functional as F
from repro.autograd.gradcheck import gradcheck
from repro.autograd.tensor import Tensor


def t(data, grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


def rand(rng, *shape):
    return t(rng.normal(size=shape))


class TestElementwiseGradients:
    def test_add(self, rng):
        gradcheck(F.add, [rand(rng, 3, 4), rand(rng, 3, 4)])

    def test_add_broadcast(self, rng):
        gradcheck(F.add, [rand(rng, 3, 4), rand(rng, 4)])

    def test_sub_broadcast_scalar(self, rng):
        gradcheck(F.sub, [rand(rng, 2, 3), t(1.5)])

    def test_mul(self, rng):
        gradcheck(F.mul, [rand(rng, 3, 4), rand(rng, 3, 4)])

    def test_mul_broadcast_column(self, rng):
        gradcheck(F.mul, [rand(rng, 3, 4), rand(rng, 3, 1)])

    def test_div(self, rng):
        a = rand(rng, 3, 3)
        b = t(rng.uniform(0.5, 2.0, size=(3, 3)))
        gradcheck(F.div, [a, b])

    def test_neg(self, rng):
        gradcheck(F.neg, [rand(rng, 5)])

    def test_pow(self, rng):
        a = t(rng.uniform(0.5, 2.0, size=(4,)))
        gradcheck(lambda x: F.pow(x, 3.0), [a])

    def test_exp(self, rng):
        gradcheck(F.exp, [rand(rng, 3, 3)])

    def test_log(self, rng):
        gradcheck(F.log, [t(rng.uniform(0.5, 3.0, size=(4,)))])

    def test_sqrt(self, rng):
        gradcheck(F.sqrt, [t(rng.uniform(0.5, 3.0, size=(4,)))])

    def test_tanh(self, rng):
        gradcheck(F.tanh, [rand(rng, 3, 3)])

    def test_sigmoid(self, rng):
        gradcheck(F.sigmoid, [rand(rng, 3, 3)])

    def test_logsigmoid(self, rng):
        gradcheck(F.logsigmoid, [rand(rng, 10)])

    def test_logsigmoid_extreme_values_finite(self):
        out = F.logsigmoid(t([-100.0, 0.0, 100.0]))
        assert np.all(np.isfinite(out.data))

    def test_relu(self, rng):
        # Shift away from 0 to avoid the kink in finite differences.
        a = t(rng.normal(size=(4, 4)) + np.sign(rng.normal(size=(4, 4))) * 0.5)
        gradcheck(F.relu, [a])

    def test_gelu(self, rng):
        gradcheck(F.gelu, [rand(rng, 3, 3)])

    def test_clip_gradient_zero_outside(self):
        a = t([-2.0, 0.0, 2.0])
        out = F.clip(a, -1.0, 1.0)
        out.backward(np.ones(3))
        assert np.allclose(a.grad, [0.0, 1.0, 0.0])

    def test_masked_fill_blocks_gradient(self):
        a = t([1.0, 2.0, 3.0])
        mask = np.array([True, False, True])
        out = F.masked_fill(a, mask, -99.0)
        assert np.allclose(out.data, [-99.0, 2.0, -99.0])
        out.backward(np.ones(3))
        assert np.allclose(a.grad, [0.0, 1.0, 0.0])


class TestShapeOps:
    def test_reshape(self, rng):
        gradcheck(lambda a: F.reshape(a, (6,)), [rand(rng, 2, 3)])

    def test_transpose_default(self, rng):
        gradcheck(lambda a: F.transpose(a, None), [rand(rng, 2, 3)])

    def test_transpose_axes(self, rng):
        gradcheck(lambda a: F.transpose(a, (2, 0, 1)), [rand(rng, 2, 3, 4)])

    def test_getitem_int_row(self, rng):
        gradcheck(lambda a: F.getitem(a, 1), [rand(rng, 3, 4)])

    def test_getitem_slice(self, rng):
        gradcheck(lambda a: F.getitem(a, (slice(None), slice(1, 3))), [rand(rng, 3, 4)])

    def test_getitem_fancy_repeated_indices_accumulate(self):
        a = t([[1.0, 2.0], [3.0, 4.0]])
        out = F.getitem(a, np.array([0, 0, 1]))
        out.backward(np.ones((3, 2)))
        assert np.allclose(a.grad, [[2.0, 2.0], [1.0, 1.0]])

    def test_concat(self, rng):
        gradcheck(lambda a, b: F.concat([a, b], axis=1), [rand(rng, 2, 3), rand(rng, 2, 2)])

    def test_stack(self, rng):
        gradcheck(lambda a, b: F.stack([a, b], axis=0), [rand(rng, 2, 3), rand(rng, 2, 3)])


class TestReductions:
    def test_sum_all(self, rng):
        gradcheck(lambda a: F.sum(a), [rand(rng, 3, 4)])

    def test_sum_axis_keepdims(self, rng):
        gradcheck(lambda a: F.sum(a, axis=1, keepdims=True), [rand(rng, 3, 4)])

    def test_sum_axis_no_keepdims(self, rng):
        gradcheck(lambda a: F.sum(a, axis=0), [rand(rng, 3, 4)])

    def test_mean_all(self, rng):
        gradcheck(lambda a: F.mean(a), [rand(rng, 3, 4)])

    def test_mean_axis(self, rng):
        gradcheck(lambda a: F.mean(a, axis=1), [rand(rng, 3, 4)])


class TestMatmul:
    def test_2d(self, rng):
        gradcheck(F.matmul, [rand(rng, 3, 4), rand(rng, 4, 5)])

    def test_batched_3d(self, rng):
        gradcheck(F.matmul, [rand(rng, 2, 3, 4), rand(rng, 2, 4, 5)])

    def test_broadcast_batch(self, rng):
        gradcheck(F.matmul, [rand(rng, 2, 3, 4), rand(rng, 4, 5)])

    def test_2d_times_3d(self, rng):
        gradcheck(F.matmul, [rand(rng, 3, 4), rand(rng, 2, 4, 5)])

    def test_vector_vector(self, rng):
        gradcheck(F.matmul, [rand(rng, 4), rand(rng, 4)])

    def test_matrix_vector(self, rng):
        gradcheck(F.matmul, [rand(rng, 3, 4), rand(rng, 4)])

    def test_batched_matrix_vector(self, rng):
        gradcheck(F.matmul, [rand(rng, 2, 3, 4), rand(rng, 4)])

    @given(
        m=st.integers(1, 4), k=st.integers(1, 4), n=st.integers(1, 4),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_matmul_shapes_property(self, m, k, n, seed):
        r = np.random.default_rng(seed)
        a, b = rand(r, m, k), rand(r, k, n)
        out = F.matmul(a, b)
        assert out.shape == (m, n)
        gradcheck(F.matmul, [a, b])


class TestSoftmaxFamily:
    def test_softmax_rows_sum_to_one(self, rng):
        out = F.softmax(rand(rng, 4, 7), axis=-1)
        assert np.allclose(out.data.sum(axis=-1), 1.0)

    def test_softmax_shift_invariance(self, rng):
        a = rand(rng, 3, 5)
        shifted = Tensor(a.data + 100.0)
        assert np.allclose(F.softmax(a).data, F.softmax(shifted).data)

    def test_softmax_gradcheck(self, rng):
        gradcheck(lambda a: F.softmax(a, axis=-1), [rand(rng, 3, 5)])

    def test_cross_entropy_matches_manual(self, rng):
        logits = rand(rng, 4, 6)
        targets = np.array([0, 2, 5, 1])
        loss = F.cross_entropy(logits, targets)
        x = logits.data
        lp = x - x.max(axis=1, keepdims=True)
        lp -= np.log(np.exp(lp).sum(axis=1, keepdims=True))
        manual = -lp[np.arange(4), targets].mean()
        assert np.isclose(float(loss.data), manual)

    def test_cross_entropy_gradcheck(self, rng):
        targets = np.array([1, 0, 3])
        gradcheck(lambda a: F.cross_entropy(a, targets), [rand(rng, 3, 4)])

    def test_cross_entropy_3d_logits(self, rng):
        logits = rand(rng, 2, 3, 5)
        targets = np.array([[0, 1, 2], [3, 4, 0]])
        gradcheck(lambda a: F.cross_entropy(a, targets), [logits])


class TestEmbeddingDropoutNorm:
    def test_embedding_gather(self, rng):
        w = rand(rng, 6, 3)
        idx = np.array([[0, 2], [5, 5]])
        out = F.embedding(w, idx)
        assert out.shape == (2, 2, 3)
        assert np.allclose(out.data[1, 0], w.data[5])

    def test_embedding_scatter_add_backward(self, rng):
        w = rand(rng, 6, 3)
        idx = np.array([1, 1, 4])
        out = F.embedding(w, idx)
        out.backward(np.ones((3, 3)))
        assert np.allclose(w.grad[1], 2.0)
        assert np.allclose(w.grad[4], 1.0)
        assert np.allclose(w.grad[0], 0.0)

    def test_embedding_gradcheck(self, rng):
        idx = np.array([[0, 3], [2, 0]])
        gradcheck(lambda w: F.embedding(w, idx), [rand(rng, 5, 2)])

    def test_dropout_eval_is_identity(self, rng):
        a = rand(rng, 4, 4)
        out = F.dropout(a, 0.5, training=False, rng=np.random.default_rng(0))
        assert out is a

    def test_dropout_scales_kept_values(self, rng):
        a = t(np.ones((2000,)))
        out = F.dropout(a, 0.25, training=True, rng=np.random.default_rng(0))
        kept = out.data[out.data != 0]
        assert np.allclose(kept, 1.0 / 0.75)
        # expected fraction kept ~ 0.75
        assert abs((out.data != 0).mean() - 0.75) < 0.05

    def test_dropout_p1_raises(self, rng):
        with pytest.raises(ValueError):
            F.dropout(rand(rng, 3), 1.0, training=True, rng=np.random.default_rng(0))

    def test_layer_norm_output_standardized(self, rng):
        a = rand(rng, 4, 8)
        out = F.layer_norm(a, t(np.ones(8)), t(np.zeros(8)))
        assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-8)
        assert np.allclose(out.data.std(axis=-1), 1.0, atol=1e-5)

    def test_layer_norm_gradcheck(self, rng):
        gradcheck(
            lambda a, g, b: F.layer_norm(a, g, b),
            [rand(rng, 3, 6), t(rng.uniform(0.5, 1.5, 6)), rand(rng, 6)],
        )

    def test_layer_norm_gradcheck_1d_input(self, rng):
        # Regression: with no batch axes, grad and gamma share a shape
        # and the in-place backward must not alias its scratch buffer
        # into the returned gamma gradient.
        gradcheck(
            lambda a, g, b: F.layer_norm(a, g, b),
            [rand(rng, 6), t(rng.uniform(0.5, 1.5, 6)), rand(rng, 6)],
        )

    @pytest.mark.parametrize(
        "gamma_shape, beta_shape",
        [((1, 6), (6,)), ((6,), (3, 6)), ((5,), (5,)), ((), (6,)), ((6,), (1,))],
    )
    def test_layer_norm_takes_only_1d_affine_over_last_axis(
        self, rng, gamma_shape, beta_shape
    ):
        a = rand(rng, 3, 6)
        gamma, beta = t(np.ones(gamma_shape)), t(np.zeros(beta_shape))
        with pytest.raises(ValueError, match="1-D gamma and beta"):
            F.layer_norm(a, gamma, beta)
        with pytest.raises(ValueError, match="1-D gamma and beta"):
            F.dropout_add_layer_norm(
                a, [rand(rng, 3, 6)], gamma, beta, 0.1, True, np.random.default_rng(0)
            )

    def test_l2_normalize_unit_norm(self, rng):
        out = F.l2_normalize(rand(rng, 5, 7), axis=-1)
        assert np.allclose(np.linalg.norm(out.data, axis=-1), 1.0)

    def test_l2_normalize_gradcheck(self, rng):
        gradcheck(lambda a: F.l2_normalize(a, axis=-1), [rand(rng, 3, 4)])


class TestHypothesisBroadcasting:
    @given(
        shape_a=st.sampled_from([(3, 4), (1, 4), (3, 1), (4,), (1,)]),
        shape_b=st.sampled_from([(3, 4), (1, 4), (3, 1), (4,), (1,)]),
        op_name=st.sampled_from(["add", "sub", "mul"]),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_binary_ops_broadcast_gradients(self, shape_a, shape_b, op_name, seed):
        r = np.random.default_rng(seed)
        op = getattr(F, op_name)
        a = t(r.normal(size=shape_a))
        b = t(r.normal(size=shape_b))
        gradcheck(op, [a, b])
