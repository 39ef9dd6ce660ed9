"""Last-position pruning of SLIME4Rec's final filter-mixer block.

``Slime4Rec.user_representation`` runs the last block's FFT mix on all
``N`` positions and its position-wise tail (dropout, LayerNorms, FFN,
residuals) on position ``N-1`` only.  The oracle is the full path,
``encode_states(x)[:, -1]``.  Declared equivalence classes:

- pruned vs full path: **tolerance** on the user vector and on every
  parameter gradient — the GEMMs and row reductions see a different
  row count, so BLAS may block them differently;
- pruned vs full path: **bitwise** on every random stream — each sliced
  dropout site still draws its full-length mask, so every generator
  (dropout, Figure-6 noise) ends the step in the same bit state;
- ``F.dropout(seq_len=N)`` vs the full-length call: **bitwise** on the
  kept positions, in both mask modes and with per-view streams.

Batched vs unbatched views, dynamic vs tape replay and checkpoint
resume keep their bitwise pins (``test_batched_views.py``,
``test_graph_replay.py``, ``test_fault_tolerance.py``): both sides of
each pin run the pruned block.
"""

import copy

import numpy as np
import pytest

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.core import Slime4Rec, SlimeConfig
from repro.core.contrastive import info_nce_loss
from repro.data.batching import Batch
from repro.nn import Dropout
from repro.nn.workspace import dropout_views, fast_dropout_masks

#: Relative tolerance of the pruned path against the full oracle, per
#: dtype, on values and gradients (error over the max magnitude).
TOLERANCE = {"float64": 1e-12, "float32": 1e-5}

NUM_ITEMS, MAX_LEN, BATCH = 30, 12, 5

VARIANTS = {
    "default": {},
    "one_layer": {"num_layers": 1},
    "wo_dfs": {"use_dfs": False},
    "wo_sfs": {"use_sfs": False},
    "noise": {"noise_eps": 0.1},
}


def build(dtype, **overrides):
    fields = dict(num_items=NUM_ITEMS, max_len=MAX_LEN, hidden_dim=16, num_layers=2)
    fields.update(overrides)
    return Slime4Rec(SlimeConfig(seed=0, dtype=dtype, **fields))


def view_inputs(views, seed=0):
    rng = np.random.default_rng(seed)
    ids = rng.integers(1, NUM_ITEMS + 1, size=(views * BATCH, MAX_LEN))
    ids[:BATCH, : MAX_LEN // 3] = 0  # left padding on the first view
    return ids


def full_oracle(model, input_ids):
    return F.getitem(model.encode_states(input_ids), (slice(None), -1))


def run(model, encode, input_ids, views, fast):
    """One forward + backward of a fixed projection of the user vectors.

    Returns the user vectors and every parameter gradient.
    """
    model.zero_grad()
    with fast_dropout_masks(fast), dropout_views(views):
        user = encode(model, input_ids)
    weights = np.random.default_rng(7).standard_normal(user.shape).astype(user.dtype)
    F.sum(F.mul(user, Tensor(weights))).backward()
    grads = {
        name: None if p.grad is None else p.grad.copy()
        for name, p in model.named_parameters()
    }
    return user.data.copy(), grads


def dropout_states(model):
    return [m.rng.bit_generator.state for m in model.modules() if isinstance(m, Dropout)]


def rel_error(got, want):
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-30))


def assert_close(got, want, dtype, what):
    err = rel_error(got, want)
    assert err <= TOLERANCE[dtype], f"{what}: relative error {err:.3g}"


CELLS = [
    (mode, fast)
    for mode in ("train", "eval")
    for fast in (False, True)
    if not (mode == "eval" and fast)  # eval draws no masks
]


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("views", [1, 3])
@pytest.mark.parametrize("mode,fast", CELLS)
def test_pruned_matches_full_path(dtype, variant, views, mode, fast):
    pruned = build(dtype, **VARIANTS[variant])
    oracle = copy.deepcopy(pruned)
    for model in (pruned, oracle):
        model.train(mode == "train")
    ids = view_inputs(views)

    got, got_grads = run(pruned, Slime4Rec.user_representation, ids, views, fast)
    want, want_grads = run(oracle, full_oracle, ids, views, fast)

    assert got.shape == want.shape == (views * BATCH, 16)
    assert got.dtype == want.dtype == np.dtype(dtype)
    assert_close(got, want, dtype, "user vectors")
    assert set(got_grads) == set(want_grads)
    for name, want_grad in want_grads.items():
        assert (got_grads[name] is None) == (want_grad is None), name
        if want_grad is not None:
            assert got_grads[name].dtype == want_grad.dtype, name
            assert_close(got_grads[name], want_grad, dtype, f"grad of {name}")
    # Same masks drawn, so every stream ends in the same bit state.
    assert dropout_states(pruned) == dropout_states(oracle)
    assert pruned.rng_state_dict() == oracle.rng_state_dict()


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_batched_loss_matches_full_path(dtype):
    """``Slime4Rec.loss`` through ``encode_views`` against the same
    objective assembled from the full stacked encode."""
    model = build(dtype)
    oracle = copy.deepcopy(model)
    rng = np.random.default_rng(3)
    batch = Batch(
        input_ids=view_inputs(1, seed=1),
        targets=rng.integers(1, NUM_ITEMS + 1, size=BATCH),
        positive_ids=view_inputs(1, seed=2),
    )
    for m in (model, oracle):
        m.train()
        m.zero_grad()
    loss = model.loss(batch)
    loss.backward()

    stacked = np.concatenate([batch.input_ids, batch.input_ids, batch.positive_ids])
    with dropout_views(3):
        user = full_oracle(oracle, stacked)
    views = [F.getitem(user, slice(i * BATCH, (i + 1) * BATCH)) for i in range(3)]
    rec = oracle.prediction_loss(views[0], batch.targets)
    cl = info_nce_loss(views[1], views[2], temperature=oracle.config.cl_temperature)
    want = F.add(rec, F.mul(cl, oracle.config.cl_weight))
    want.backward()

    assert_close(np.asarray(loss.data), np.asarray(want.data), dtype, "loss")
    for (name, p), (_, q) in zip(model.named_parameters(), oracle.named_parameters()):
        assert_close(p.grad, q.grad, dtype, f"grad of {name}")
    assert model.rng_state_dict() == oracle.rng_state_dict()


def test_eval_scores_match_full_path():
    model = build("float64").eval()
    ids = view_inputs(1)
    want = full_oracle(model, ids).data @ model.score_context()
    assert_close(model.predict_scores(ids), want, "float64", "scores")
    assert_close(model.encode_users(ids), full_oracle(model, ids).data, "float64", "users")


# ----------------------------------------------------------------------
# F.dropout(seq_len=N): full-length draw, trailing positions kept
# ----------------------------------------------------------------------


@pytest.mark.parametrize("fast", [False, True])
@pytest.mark.parametrize("views", [1, 3])
@pytest.mark.parametrize("kept", [1, 4])
def test_dropout_seq_len_is_the_full_call_sliced(fast, views, kept):
    x = np.random.default_rng(0).standard_normal((views * 4, 10, 6))
    full_rng, sliced_rng = np.random.default_rng(9), np.random.default_rng(9)
    whole = Tensor(x, requires_grad=True)
    full = F.dropout(whole, 0.3, True, full_rng, fast=fast, views=views)
    part = Tensor(x[:, -kept:], requires_grad=True)
    sliced = F.dropout(part, 0.3, True, sliced_rng, fast=fast, views=views, seq_len=10)
    np.testing.assert_array_equal(sliced.data, full.data[:, -kept:])
    assert full_rng.bit_generator.state == sliced_rng.bit_generator.state

    grad = np.zeros(x.shape)
    grad[:, -kept:] = np.random.default_rng(1).standard_normal(part.shape)
    full.backward(grad)
    sliced.backward(grad[:, -kept:])
    np.testing.assert_array_equal(part.grad, whole.grad[:, -kept:])


def test_dropout_seq_len_rejects_a_longer_slice():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="length-4"):
        F.dropout(Tensor(np.ones((2, 5, 3))), 0.5, True, rng, seq_len=4)
    with pytest.raises(ValueError, match="length-4"):
        F.dropout(Tensor(np.ones(5)), 0.5, True, rng, seq_len=4)
