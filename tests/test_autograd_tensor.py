"""Tests for the Tensor core: graph recording, backward, grad modes."""

import numpy as np
import pytest

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor, no_grad, is_grad_enabled, unbroadcast


class TestTensorBasics:
    def test_python_float_is_what_asarray_makes(self):
        assert Tensor(1.5).dtype == np.asarray(1.5).dtype == np.float64
        assert Tensor(np.float32(1.5)).dtype == np.float32

    def test_integer_data_stays_integer(self):
        t = Tensor([1, 2, 3])
        assert t.dtype == np.int64

    def test_integer_tensor_cannot_require_grad(self):
        with pytest.raises(TypeError):
            Tensor([1, 2, 3], requires_grad=True)

    def test_shape_ndim_size(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.shape == (2, 3, 4)
        assert t.ndim == 3
        assert t.size == 24

    def test_detach_cuts_graph(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = (a * 2.0).detach()
        assert not b.requires_grad
        assert b._backward is None

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))


class TestBackward:
    def test_simple_chain(self):
        x = Tensor(3.0, requires_grad=True)
        y = x * x  # y = x^2, dy/dx = 2x
        y.backward()
        assert np.isclose(x.grad, 6.0)

    def test_gradient_accumulates_across_backward_calls(self):
        x = Tensor(2.0, requires_grad=True)
        (x * x).backward()
        (x * x).backward()
        assert np.isclose(x.grad, 8.0)

    def test_diamond_graph_accumulates_once_per_path(self):
        x = Tensor(2.0, requires_grad=True)
        a = x * 3.0
        b = x * 5.0
        out = a + b
        out.backward()
        assert np.isclose(x.grad, 8.0)

    def test_reused_node_gradient(self):
        # y = (x + x) * x = 2x^2, dy/dx = 4x
        x = Tensor(3.0, requires_grad=True)
        y = (x + x) * x
        y.backward()
        assert np.isclose(x.grad, 12.0)

    def test_non_scalar_backward_requires_grad_arg(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 2.0
        with pytest.raises(RuntimeError):
            y.backward()
        y.backward(np.ones(2))
        assert np.allclose(x.grad, [2.0, 2.0])

    def test_backward_on_graphless_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward(np.ones(1))

    def test_grad_shape_mismatch_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 1.0
        with pytest.raises(ValueError):
            y.backward(np.ones(3))

    def test_deep_chain_does_not_recurse(self):
        # 3000-op chain would blow the python recursion limit if
        # backward were recursive.
        x = Tensor(1.0, requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 0.001
        y.backward()
        assert np.isclose(x.grad, 1.0)


class TestNoGrad:
    def test_no_grad_disables_recording(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert y._backward is None

    def test_no_grad_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_restores_on_exception(self):
        try:
            with no_grad():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert is_grad_enabled()


class TestUnbroadcast:
    def test_identity_when_shapes_match(self):
        g = np.ones((2, 3))
        assert unbroadcast(g, (2, 3)) is g

    def test_sums_prepended_axes(self):
        g = np.ones((4, 2, 3))
        assert unbroadcast(g, (2, 3)).shape == (2, 3)
        assert np.all(unbroadcast(g, (2, 3)) == 4.0)

    def test_sums_stretched_axes(self):
        g = np.ones((2, 5))
        out = unbroadcast(g, (2, 1))
        assert out.shape == (2, 1)
        assert np.all(out == 5.0)

    def test_mixed(self):
        g = np.ones((7, 2, 5))
        out = unbroadcast(g, (1, 5))
        assert out.shape == (1, 5)
        assert np.all(out == 14.0)


class TestItem:
    def test_scalar_tensor(self):
        assert Tensor(3.5).item() == 3.5

    def test_single_element_array(self):
        assert Tensor(np.array([[2.0]])).item() == 2.0

    def test_non_scalar_raises_clear_valueerror(self):
        with pytest.raises(ValueError, match=r"1-element tensor.*\(2, 3\)"):
            Tensor(np.zeros((2, 3))).item()

    def test_empty_tensor_raises(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros((0,))).item()


class TestInPlaceAccumulationSafety:
    """Regressions for the buffer-ownership rewrite of backward()."""

    def test_sibling_grads_do_not_share_buffers_after_accumulation(self):
        # add's backward hands the *same* grad array to both parents;
        # accumulating into one leaf must never corrupt the other.
        x = Tensor(np.ones(3), requires_grad=True)
        y = Tensor(np.ones(3), requires_grad=True)
        z = F.add(x, y)
        F.sum(F.add(z, x)).backward()  # x gets two contributions, y one
        assert np.allclose(x.grad, 2.0)
        assert np.allclose(y.grad, 1.0)

    def test_repeated_backward_does_not_mutate_sibling(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = Tensor(np.ones(3), requires_grad=True)
        out = F.sum(F.add(x, y))
        out.backward()
        first_y = y.grad.copy()
        out.backward()  # accumulate a second pass
        assert np.allclose(y.grad, 2.0 * first_y)
        assert np.allclose(x.grad, y.grad)

    def test_scalar_graph_accumulation(self):
        # 0-d arithmetic yields immutable numpy scalars; the in-place
        # fast path must fall back to allocation for them.
        x = Tensor(3.0, requires_grad=True)
        y = (x + x) * x  # dy/dx = 4x = 12, three contributions to x
        y.backward()
        assert np.isclose(x.grad, 12.0)

    def test_many_contributions_accumulate_in_place(self):
        x = Tensor(np.ones(4), requires_grad=True)
        total = F.add(F.add(x, x), F.add(x, x))
        F.sum(total).backward()
        assert np.allclose(x.grad, 4.0)

    def test_externally_assigned_grad_buffer_never_mutated(self):
        # Assigning .grad resets ownership: a later backward pass must
        # accumulate into a fresh array, not the caller's buffer.
        x = Tensor(np.ones(3), requires_grad=True)
        out = F.sum(F.mul(x, 2.0))
        out.backward()
        out.backward()  # makes x's grad buffer owned
        external = np.zeros(3)
        x.grad = external
        out.backward()
        assert np.allclose(external, 0.0)  # untouched
        assert np.allclose(x.grad, 2.0)

    def test_zero_grad_resets_ownership(self):
        x = Tensor(np.ones(2), requires_grad=True)
        F.sum(F.mul(x, 2.0)).backward()
        x.zero_grad()
        assert x.grad is None
        F.sum(F.mul(x, 3.0)).backward()
        assert np.allclose(x.grad, 3.0)
