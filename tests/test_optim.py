"""Tests for Adam and gradient clipping."""

import numpy as np
import pytest

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
import repro.optim
from repro.optim import Adam, clip_grad_norm


def quadratic_loss(param):
    """L = sum((p - 3)^2), minimized at p == 3."""
    diff = F.sub(param, 3.0)
    return F.sum(F.mul(diff, diff))


class TestAdam:
    def test_converges_on_quadratic(self):
        p = Tensor(np.zeros(4), requires_grad=True)
        opt = Adam([p], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            quadratic_loss(p).backward()
            opt.step()
        assert np.allclose(p.data, 3.0, atol=1e-2)

    def test_first_step_size_is_lr(self):
        """With bias correction, |first update| == lr regardless of grad scale."""
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = Adam([p], lr=0.05)
        p.grad = np.array([1234.0])
        opt.step()
        assert np.isclose(abs(p.data[0]), 0.05, rtol=1e-4)

    def test_weight_decay_shrinks_params(self):
        p = Tensor(np.ones(3) * 10.0, requires_grad=True)
        opt = Adam([p], lr=0.1, weight_decay=1.0)
        p.grad = np.zeros(3)
        for _ in range(50):
            opt.step()
        assert np.all(np.abs(p.data) < 10.0)

    def test_skips_params_without_grad(self):
        p = Tensor(np.ones(2), requires_grad=True)
        opt = Adam([p], lr=0.1)
        opt.step()  # no grad set; must not raise or move
        assert np.allclose(p.data, 1.0)

    def test_rejects_empty_params(self):
        with pytest.raises(ValueError):
            Adam([])

    def test_zero_grad_clears(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        p.grad = np.ones(2)
        opt = Adam([p], lr=0.1)
        opt.zero_grad()
        assert p.grad is None

    def test_ignores_frozen_params(self):
        frozen = Tensor(np.ones(2))
        p = Tensor(np.zeros(2), requires_grad=True)
        assert Adam([frozen, p]).params == [p]

    def test_lr_is_constant_across_steps(self):
        """No schedule: under a constant gradient m̂/√v̂ is 1 at every
        step, so every update moves each parameter by exactly ``lr``."""
        p = Tensor(np.zeros(3), requires_grad=True)
        opt = Adam([p], lr=0.01)
        for k in range(1, 21):
            before = p.data.copy()
            p.grad = np.array([2.0, -0.5, 30.0])
            opt.step()
            assert opt.lr == 0.01
            np.testing.assert_allclose(
                before - p.data, [0.01, -0.01, 0.01], rtol=1e-6, err_msg=f"step {k}"
            )


class TestAdamState:
    def test_fresh_state_is_zero(self):
        p = Tensor(np.ones((2, 3)), requires_grad=True)
        state = Adam([p], lr=0.05).state_dict()
        assert state["lr"] == 0.05 and state["step"] == 0
        for key in ("m", "v"):
            assert len(state[key]) == 1
            assert state[key][0].shape == (2, 3)
            assert not state[key][0].any()

    def test_state_dict_copies_the_buffers(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        opt = Adam([p], lr=0.1)
        p.grad = np.ones(2)
        opt.step()
        state = opt.state_dict()
        state["m"][0][:] = 99.0
        state["v"][0][:] = 99.0
        assert np.allclose(opt._m[0], 0.1) and np.allclose(opt._v[0], 1e-3)

    def test_load_restores_lr_and_continues_bitwise(self):
        rng = np.random.default_rng(11)
        grads = [rng.normal(size=(3, 2)) for _ in range(6)]
        start = rng.normal(size=(3, 2))

        def run(opt, param, steps):
            for g in steps:
                param.grad = g.copy()
                opt.step()

        p = Tensor(start.copy(), requires_grad=True)
        opt = Adam([p], lr=0.02, weight_decay=0.01)
        run(opt, p, grads[:3])
        q = Tensor(p.data.copy(), requires_grad=True)
        resumed = Adam([q], lr=0.5, weight_decay=0.01)  # wrong lr on purpose
        resumed.load_state_dict(opt.state_dict())
        assert resumed.lr == 0.02 and resumed.state_dict()["step"] == 3
        run(opt, p, grads[3:])
        run(resumed, q, grads[3:])
        assert np.array_equal(p.data, q.data)

    def test_load_writes_into_the_existing_buffers(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        opt = Adam([p], lr=0.1)
        m, v = opt._m[0], opt._v[0]
        opt.load_state_dict(
            {"lr": 0.1, "step": 4, "m": [np.full(2, 0.5)], "v": [np.full(2, 0.25)]}
        )
        assert opt._m[0] is m and opt._v[0] is v
        assert np.array_equal(m, [0.5, 0.5]) and np.array_equal(v, [0.25, 0.25])

    def test_load_rejects_dtype_mismatch(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        opt = Adam([p])
        state = opt.state_dict()
        state["m"][0] = state["m"][0].astype(np.float32)
        with pytest.raises(ValueError, match="m buffer 0 mismatch"):
            opt.load_state_dict(state)


def test_adam_is_the_one_update_rule():
    assert repro.optim.__all__ == ["Adam", "clip_grad_norm"]


class ReferenceAdam:
    """Straightforward textbook Adam, allocating freely every step."""

    def __init__(self, shapes, lr, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        self.lr, self.eps, self.weight_decay = lr, eps, weight_decay
        self.beta1, self.beta2 = betas
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        out = []
        for i, (p, g) in enumerate(zip(params, grads)):
            if self.weight_decay:
                g = g + self.weight_decay * p
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g
            m_hat = self.m[i] / (1.0 - self.beta1 ** self.t)
            v_hat = self.v[i] / (1.0 - self.beta2 ** self.t)
            out.append(p - self.lr * m_hat / (np.sqrt(v_hat) + self.eps))
        return out


class TestAdamMatchesReference:
    """The in-place/fused rewrite must track the textbook update exactly."""

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_ten_steps_step_for_step(self, weight_decay):
        rng = np.random.default_rng(7)
        shapes = [(4, 3), (5,), ()]
        params = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
        reference = [p.data.copy() for p in params]
        opt = Adam(params, lr=0.05, weight_decay=weight_decay)
        ref_opt = ReferenceAdam(shapes, lr=0.05, weight_decay=weight_decay)
        for _ in range(10):
            grads = [rng.normal(size=s) for s in shapes]
            for p, g in zip(params, grads):
                p.grad = np.asarray(g)
            opt.step()
            reference = ref_opt.step(reference, grads)
            for p, r in zip(params, reference):
                np.testing.assert_allclose(p.data, r, rtol=1e-10, atol=1e-12)

    def test_step_updates_param_buffer_in_place(self):
        p = Tensor(np.ones(4), requires_grad=True)
        buffer = p.data
        opt = Adam([p], lr=0.1)
        p.grad = np.ones(4)
        opt.step()
        assert p.data is buffer  # no reallocation on the hot path

    def test_moment_state_isolated_between_params(self):
        a = Tensor(np.zeros(3), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        opt = Adam([a, b], lr=0.1)
        a.grad = np.ones(3)
        opt.step()  # b has no grad: its state and data must not move
        assert np.allclose(b.data, 0.0)
        assert np.allclose(opt._m[1], 0.0) and np.allclose(opt._v[1], 0.0)


class TestClipGradNorm:
    def test_reports_norm(self):
        p = Tensor(np.zeros(4), requires_grad=True)
        p.grad = np.ones(4)  # norm 2
        assert np.isclose(clip_grad_norm([p], 100.0), 2.0)

    def test_clips_to_max(self):
        p = Tensor(np.zeros(4), requires_grad=True)
        p.grad = np.ones(4) * 10  # norm 20
        clip_grad_norm([p], 1.0)
        assert np.isclose(np.linalg.norm(p.grad), 1.0)

    def test_no_clip_below_threshold(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        p.grad = np.array([0.1, 0.1])
        before = p.grad.copy()
        clip_grad_norm([p], 5.0)
        assert np.allclose(p.grad, before)

    def test_norm_is_global_across_params(self):
        a = Tensor(np.zeros(2), requires_grad=True)
        b = Tensor(np.zeros(1), requires_grad=True)
        a.grad = np.array([3.0, 0.0])
        b.grad = np.array([4.0])  # global norm 5, each alone is below 5
        assert clip_grad_norm([a, b], 1.0) == 5.0
        np.testing.assert_allclose(a.grad, [0.6, 0.0])
        np.testing.assert_allclose(b.grad, [0.8])

    def test_handles_missing_grads(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        assert clip_grad_norm([p], 1.0) == 0.0
