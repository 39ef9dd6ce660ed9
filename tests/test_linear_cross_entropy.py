"""The full-softmax prediction head, ``F.linear_cross_entropy``.

Equivalence classes, each against the dense composition kept in
``tests/ce_reference.py``:

- **bitwise** when the head fits one column block: the loss and both
  gradients, over {float32, float64} x {2-D, 3-D inputs} x
  {no ``ignore_index``, ``ignore_index`` set}, and for the models that
  call the head from their own objectives (BERT4Rec, S3Rec,
  ContrastVAE);
- **tolerance** (atol 1e-11 in float64, 1e-4 in float32) when the
  block cap is patched small so the op streams the table in several
  blocks, which reorders the normalizer and gradient sums.
"""

import copy

import numpy as np
import pytest

from ce_reference import dense_cross_entropy
from repro.autograd import functional as F
from repro.autograd.gradcheck import gradcheck
from repro.autograd.tensor import Tensor
from repro.baselines import build_baseline
from repro.core import Slime4Rec, SlimeConfig
from repro.data.batching import Batch

NUM_CLASSES, DIM, IGNORE = 37, 8, -100
SHAPES = {"2d": (16,), "3d": (3, 5)}


def head_inputs(dtype, lead, ignore_index, seed=0):
    rng = np.random.default_rng(seed)
    user = rng.normal(size=lead + (DIM,)).astype(dtype)
    table = rng.normal(size=(NUM_CLASSES, DIM)).astype(dtype)
    targets = rng.integers(0, NUM_CLASSES, size=lead)
    if ignore_index is not None:
        targets.reshape(-1)[::3] = ignore_index
    return user, table, targets


def run(loss_fn, user, table, targets, ignore_index):
    u = Tensor(user.copy(), requires_grad=True)
    w = Tensor(table.copy(), requires_grad=True)
    loss = loss_fn(u, w, targets, ignore_index=ignore_index)
    loss.backward()
    return loss.data, u.grad, w.grad


def stream_in(monkeypatch, rows, itemsize, width):
    """Patch the block cap so the head streams ``width`` columns a block."""
    monkeypatch.setattr(F, "_CE_BLOCK_BYTES", rows * itemsize * width)


@pytest.mark.parametrize("ignore_index", [None, IGNORE])
@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_one_block_is_bitwise_the_dense_composition(dtype, shape, ignore_index):
    args = head_inputs(dtype, SHAPES[shape], ignore_index)
    got = run(F.linear_cross_entropy, *args, ignore_index)
    want = run(dense_cross_entropy, *args, ignore_index)
    assert got[0].dtype == np.dtype(dtype)
    for name, g, w in zip(("loss", "g_inputs", "g_weight"), got, want):
        assert g.dtype == w.dtype, name
        np.testing.assert_array_equal(g, w, err_msg=name)


@pytest.mark.parametrize("width", [1, 5, 7, 30])
@pytest.mark.parametrize("ignore_index", [None, IGNORE])
@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_streamed_matches_the_dense_composition(
    monkeypatch, dtype, shape, ignore_index, width
):
    atol = 1e-11 if dtype is np.float64 else 1e-4
    args = head_inputs(dtype, SHAPES[shape], ignore_index)
    want = run(dense_cross_entropy, *args, ignore_index)
    stream_in(monkeypatch, int(np.prod(SHAPES[shape])), np.dtype(dtype).itemsize, width)
    got = run(F.linear_cross_entropy, *args, ignore_index)
    assert got[0].dtype == np.dtype(dtype)
    for name, g, w in zip(("loss", "g_inputs", "g_weight"), got, want):
        np.testing.assert_allclose(g, w, rtol=0, atol=atol, err_msg=name)


@pytest.mark.parametrize("ignore_index", [None, IGNORE])
@pytest.mark.parametrize("width", [1, 5, NUM_CLASSES])
def test_gradcheck(monkeypatch, width, ignore_index):
    user, table, targets = head_inputs(np.float64, (4, 3), ignore_index, seed=1)
    stream_in(monkeypatch, 12, 8, width)
    gradcheck(
        lambda u, w: F.linear_cross_entropy(u, w, targets, ignore_index=ignore_index),
        [Tensor(user, requires_grad=True), Tensor(table, requires_grad=True)],
    )


@pytest.mark.parametrize("width", [4, NUM_CLASSES])
def test_rejects_out_of_range_targets(monkeypatch, width):
    """A blocked gather would skip the row; the op fails loudly instead."""
    user, table, _ = head_inputs(np.float64, (3,), None)
    stream_in(monkeypatch, 3, 8, width)
    for bad in ([1, NUM_CLASSES, 2], [1, -3, 2]):
        with pytest.raises(IndexError):
            F.linear_cross_entropy(Tensor(user), Tensor(table), np.array(bad))
    # Ignored positions are never gathered, so any value may mark them.
    F.linear_cross_entropy(
        Tensor(user), Tensor(table), np.array([1, IGNORE, 2]), ignore_index=IGNORE
    )


def test_all_ignored_is_zero_loss_and_gradient():
    user, table, _ = head_inputs(np.float64, (4,), None)
    loss, g_user, g_table = run(
        F.linear_cross_entropy, user, table, np.full(4, IGNORE), IGNORE
    )
    assert float(loss) == 0.0
    assert not g_user.any() and not g_table.any()


def test_cap_keeps_the_benchmark_head_in_one_block():
    """The 100k-item benchmark head (128 rows x 100,001 classes in
    float32) runs as one block, so it trains on the dense numbers."""
    assert 128 * 100_001 * 4 <= F._CE_BLOCK_BYTES


# ----------------------------------------------------------------------
# Models
# ----------------------------------------------------------------------


class _Dataset:
    """The two fields ``build_baseline`` reads from a dataset."""

    num_items = 30
    max_len = 10


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(3)
    inputs = rng.integers(1, 31, size=(6, 10))
    inputs[:, :3] = 0
    return Batch(input_ids=inputs, targets=rng.integers(1, 31, size=6))


def model_step(model, batch, loss_fn=None):
    model.train()
    loss = loss_fn(model, batch) if loss_fn else model.loss(batch)
    loss.backward()
    return loss.data, {n: p.grad for n, p in model.named_parameters() if p.grad is not None}


@pytest.mark.parametrize("name", ["BERT4Rec", "S3Rec", "ContrastVAE"])
def test_model_heads_are_bitwise_the_dense_composition(monkeypatch, batch, name):
    """The Cloze heads (3-D states, ``ignore_index``) and ContrastVAE's."""
    model = build_baseline(name, _Dataset(), hidden_dim=16, seed=0, dtype="float64")
    oracle = copy.deepcopy(model)
    loss_fn = (lambda m, b: m.cloze_loss(b)) if name == "S3Rec" else None
    got_loss, got = model_step(model, batch, loss_fn)
    monkeypatch.setattr(F, "linear_cross_entropy", dense_cross_entropy)
    want_loss, want = model_step(oracle, batch, loss_fn)
    np.testing.assert_array_equal(got_loss, want_loss)
    assert got.keys() == want.keys()
    for key in got:
        np.testing.assert_array_equal(got[key], want[key], err_msg=key)


def test_streamed_model_head_matches_one_block(monkeypatch, batch):
    cfg = SlimeConfig(num_items=30, max_len=10, hidden_dim=16, seed=0, dtype="float64")
    whole = Slime4Rec(cfg)
    streamed = copy.deepcopy(whole)
    want_loss, want = model_step(whole, batch)
    stream_in(monkeypatch, 6, 8, 7)
    got_loss, got = model_step(streamed, batch)
    np.testing.assert_allclose(got_loss, want_loss, rtol=0, atol=1e-10)
    for key in want:
        np.testing.assert_allclose(got[key], want[key], rtol=0, atol=1e-10, err_msg=key)
