"""Last-position pruning of the models' final encoder block.

Every model scores a user from ``h_t^L`` alone (Eq. 31), so
``user_representation`` computes only that position of the last block:

- SLIME4Rec and FMLP-Rec run the last block's filter as one weighted
  sum over the ``N`` input positions (``spectral_filter(..., last=True)``,
  no FFT) and its position-wise tail (dropout, LayerNorms, FFN,
  residuals) on position ``N-1`` only;
- SASRec (and DuoRec, CL4SRec, CoSeRec and ContrastVAE, which inherit
  it) runs the last transformer block's attention with the last query
  only — keys and values stay full — and its tail on position ``N-1``;
  BERT4Rec does the same on its shifted, ``[mask]``-terminated window.

The oracle is the full path, ``encode_states(x)[:, -1]``.  Declared
equivalence classes:

- pruned vs full path: **tolerance** on the user vector and on every
  parameter gradient — the GEMMs and row reductions see a different
  row count, so BLAS may block them differently;
- pruned vs full path: **bitwise** on every random stream — each sliced
  dropout site draws the kept rows of its full-length mask and skips
  its generator past the rest (attention-probability dropout: the last
  query row of its ``(B, H, N, N)`` mask), so every generator (dropout,
  Figure-6 noise, augmentation, reparameterization) ends the step in
  the same bit state, also when the pruned side draws its masks in
  small blocks and the oracle in one;
- ``F.dropout`` vs its raw-bit rule drawn the plain way
  (``dropout_reference.py``, one property test): **bitwise** on the
  values, the backward and the generator's end state, with and without
  ``seq_len=N`` (then on the kept rows of axis -2), for stacked views
  against consecutive per-view draws, at any draw-block size and across
  a pending buffered uint32.

Stacked vs sequential views (tolerance, ``test_batched_views.py``),
dynamic vs tape replay and checkpoint resume (bitwise,
``test_graph_replay.py``, ``test_fault_tolerance.py``) keep their
pins: both sides of each pin run the pruned block.
"""

import contextlib
import copy
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor, is_grad_enabled
from repro.baselines import BERT4Rec, CL4SRec, CoSeRec, ContrastVAE, DuoRec, FMLPRec, SASRec
from repro.core import Slime4Rec, SlimeConfig
from repro.core.contrastive import info_nce_loss
from repro.data.batching import Batch
from repro.nn import Dropout

from dropout_reference import scaled_mask

#: Relative tolerance of the pruned path against the full oracle, per
#: dtype, on values and gradients (error over the max magnitude).
TOLERANCE = {"float64": 1e-12, "float32": 1e-5}

NUM_ITEMS, MAX_LEN, BATCH = 30, 12, 5

#: A dropout draw block (64-bit words) smaller than every test mask:
#: six ``hidden_dim=16`` rows of 4 words per pass.
SMALL_BLOCK = 24

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


def view_inputs(views, seed=0, padded=True):
    rng = np.random.default_rng(seed)
    ids = rng.integers(1, NUM_ITEMS + 1, size=(views * BATCH, MAX_LEN))
    if padded:
        ids[:BATCH, : MAX_LEN // 3] = 0  # left padding on the first view
    return ids


def full_oracle(model, input_ids):
    return F.getitem(model.encode_states(input_ids), (slice(None), -1))


def draw_blocks(block):
    """Run dropout's mask draws through ``block``-word passes
    (``None``: the default block, which every mask here fits in)."""
    if block is None:
        return contextlib.nullcontext()
    return mock.patch.object(F, "_DRAW_BLOCK", block)


def run(model, encode, input_ids, views, block=None):
    """One forward + backward of a fixed projection of the user vectors.

    ``views > 1`` runs ``encode`` as the user-vector hook of a stacked
    ``encode_views`` pass (per-view Figure-6 noise); ``block`` is the
    dropout draw-block size (:func:`draw_blocks`).  Returns the user
    vectors and every parameter gradient.
    """
    model.zero_grad()
    with draw_blocks(block):
        if views == 1:
            user = encode(model, input_ids)
        else:
            model.user_representation = lambda ids: encode(model, ids)
            try:
                user = F.concat(list(model.encode_views(np.split(input_ids, views))), axis=0)
            finally:
                del model.user_representation
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


#: ``(mode, draw block)`` cells.  The pruned side draws its masks in
#: passes of ``block`` 64-bit words (``None``: one pass), the oracle always
#: in one pass; a small block splits every mask draw, sliced (six kept
#: rows per pass) or not, across many passes.  Eval draws no masks.
CELLS = [("train", None), ("train", SMALL_BLOCK), ("eval", None)]


def check_pruned_matches_full_path(pruned, hook, dtype, views, mode, block):
    """The pruned ``hook`` against ``encode_states(x)[:, -1]`` on a deep
    copy: values and every gradient in the tolerance class, every random
    stream bitwise."""
    oracle = copy.deepcopy(pruned)
    for model in (pruned, oracle):
        model.train(mode == "train")
    ids = view_inputs(views)

    got, got_grads = run(pruned, hook, ids, views, block)
    want, want_grads = run(oracle, full_oracle, ids, views)

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
@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("views", [1, 3])
@pytest.mark.parametrize("mode,block", CELLS)
def test_pruned_matches_full_path(dtype, variant, views, mode, block):
    pruned = build(dtype, **VARIANTS[variant])
    check_pruned_matches_full_path(
        pruned, Slime4Rec.user_representation, dtype, views, mode, block
    )


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("views", [1, 3])
@pytest.mark.parametrize("mode,block", CELLS)
def test_fmlprec_pruned_matches_full_path(dtype, views, mode, block):
    pruned = FMLPRec(
        num_items=NUM_ITEMS, max_len=MAX_LEN, hidden_dim=16, num_layers=2, seed=0, dtype=dtype
    )
    check_pruned_matches_full_path(
        pruned, FMLPRec.user_representation, dtype, views, mode, block
    )


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
# The transformer models: last block on the last query only
# ----------------------------------------------------------------------

TRANSFORMERS = {
    cls.__name__: cls for cls in (SASRec, DuoRec, CL4SRec, CoSeRec, ContrastVAE, BERT4Rec)
}


def build_transformer(name, dtype):
    return TRANSFORMERS[name](
        num_items=NUM_ITEMS, max_len=MAX_LEN, hidden_dim=16, num_layers=2, seed=0, dtype=dtype
    )


def transformer_oracle(model, input_ids):
    """``encode_states(x)[:, -1]`` on the window the model encodes
    (BERT4Rec: shifted left, ``[mask]`` appended)."""
    if isinstance(model, BERT4Rec):
        input_ids = np.roll(input_ids, -1, axis=1)
        input_ids[:, -1] = model.mask_token
    return full_oracle(model, input_ids)


def assert_grads_close(got_grads, want_grads, dtype):
    assert set(got_grads) == set(want_grads)
    scale = max(np.abs(g).max() for g in want_grads.values() if g is not None)
    for name, want in want_grads.items():
        got = got_grads[name]
        assert (got is None) == (want is None), name
        if want is None:
            continue
        assert got.dtype == want.dtype, name
        if name.endswith("key.bias"):
            # Analytically zero on both paths (softmax is shift-invariant
            # along a query row), so only rounding noise is left to
            # compare: absolute, against the largest gradient entry.
            err = float(np.abs(got - want).max()) / scale
            assert err <= TOLERANCE[dtype], f"grad of {name}: absolute error {err:.3g}"
        else:
            assert_close(got, want, dtype, f"grad of {name}")


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("name", sorted(TRANSFORMERS))
@pytest.mark.parametrize("padded", [True, False])
@pytest.mark.parametrize("views", [1, 3])
@pytest.mark.parametrize("mode,block", CELLS)
def test_transformer_pruned_matches_full_path(dtype, name, padded, views, mode, block):
    pruned = build_transformer(name, dtype)
    oracle = copy.deepcopy(pruned)
    for model in (pruned, oracle):
        model.train(mode == "train")
    ids = view_inputs(views, padded=padded)

    got, got_grads = run(pruned, TRANSFORMERS[name].user_representation, ids, views, block)
    want, want_grads = run(oracle, transformer_oracle, ids, views)

    assert got.shape == want.shape == (views * BATCH, 16)
    assert got.dtype == want.dtype == np.dtype(dtype)
    assert_close(got, want, dtype, "user vectors")
    assert_grads_close(got_grads, want_grads, dtype)
    assert dropout_states(pruned) == dropout_states(oracle)
    assert pruned.rng_state_dict() == oracle.rng_state_dict()


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("name", ["DuoRec", "CL4SRec", "CoSeRec", "ContrastVAE"])
@pytest.mark.parametrize("block", [None, SMALL_BLOCK])
def test_contrastive_loss_matches_full_path(name, dtype, block):
    """``loss`` (DuoRec, CL4SRec, CoSeRec: three stacked views) against
    the same objective with the full path as the user-vector hook; the
    model under test draws its masks in ``block`` passes, the oracle in
    one."""
    model = build_transformer(name, dtype)
    oracle = copy.deepcopy(model)
    oracle.user_representation = lambda ids: full_oracle(oracle, ids)
    rng = np.random.default_rng(3)
    batch = Batch(
        input_ids=view_inputs(1, seed=1),
        targets=rng.integers(1, NUM_ITEMS + 1, size=BATCH),
        positive_ids=view_inputs(1, seed=2),
    )
    losses = []
    for m, draw_block in ((model, block), (oracle, None)):
        m.train()
        m.zero_grad()
        with draw_blocks(draw_block):
            loss = m.loss(batch)
        loss.backward()
        losses.append(loss)

    assert losses[0].dtype == losses[1].dtype
    assert_close(np.asarray(losses[0].data), np.asarray(losses[1].data), dtype, "loss")
    assert_grads_close(
        {n: p.grad for n, p in model.named_parameters()},
        {n: p.grad for n, p in oracle.named_parameters()},
        dtype,
    )
    assert model.rng_state_dict() == oracle.rng_state_dict()


@pytest.mark.parametrize("name", sorted(TRANSFORMERS))
def test_transformer_eval_scores_match_full_path(name):
    model = build_transformer(name, "float64").eval()
    ids = view_inputs(1)
    user = transformer_oracle(model, ids)
    if name == "ContrastVAE":  # serves and ranks by the posterior mean
        user = model.mu_head(user)
    user = user.data
    assert_close(model.encode_users(ids), user, "float64", "users")
    want = user @ model.score_context()
    assert_close(model.predict_scores(ids), want, "float64", "scores")


@pytest.mark.parametrize("name", ["BERT4Rec", "ContrastVAE"])
def test_serves_the_vector_it_evaluates_with(name):
    """Serving (``encode_users``) and evaluation (``predict_scores``)
    score the same vector (BERT4Rec: the ``[mask]`` query; ContrastVAE:
    the posterior mean), and evaluation builds no autograd graph."""
    model = build_transformer(name, "float64").eval()
    ids = view_inputs(1)
    context = model.score_context()
    grad_modes = []
    hook = model.user_representation

    def spy(input_ids):
        grad_modes.append(is_grad_enabled())
        return hook(input_ids)

    model.user_representation = spy
    scores = model.predict_scores(ids, context)
    np.testing.assert_array_equal(model.encode_users(ids) @ context, scores)
    np.testing.assert_array_equal(model.predict_scores(ids), scores)
    assert grad_modes == [False, False, False]


# ----------------------------------------------------------------------
# F.dropout: the raw-bit rule, whole or as the trailing rows of it
# ----------------------------------------------------------------------


#: Per-row shapes of a dropout site, from the row length ``N`` and a
#: width: ``(N, d)`` positions of an activation, ``(H, N, N)`` attention
#: probabilities (query rows).
ROW_SHAPES = {
    "positions": lambda n, width: (n, width),
    "query_rows": lambda n, width: (min(width, 3), n, n),
}


# The discrete axes are pytest cells, so every combination runs on each
# pass; hypothesis draws the sizes, ``p`` and the seed within a cell.
@pytest.mark.parametrize("block", [1, 5, 64, F._DRAW_BLOCK])
@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("sliced", [False, True])
@pytest.mark.parametrize("rows", sorted(ROW_SHAPES))
@settings(max_examples=10, deadline=None)
@given(
    views=st.integers(1, 3),
    per_view=st.integers(1, 4),
    length=st.integers(1, 10),
    width=st.integers(1, 9),
    kept_fraction=st.floats(0.0, 1.0),
    p=st.floats(0.05, 0.95),
    seed=st.integers(0, 2**32 - 1),
)
def test_dropout_is_the_raw_bit_rule(
    rows, sliced, dtype, buffered, block, views, per_view, length, width, kept_fraction, p, seed
):
    """One ``(V*B, ...)`` call, ``sliced`` on the last ``n`` of ``N``
    rows (``seq_len=N``, ``n`` in ``1..N``), against ``V`` consecutive
    full-length raw-bit draws (``dropout_reference``): values, backward
    and the generator's end state bitwise, whatever the draw-block
    size (in 64-bit words)."""
    row_shape = ROW_SHAPES[rows](length, width)
    n = max(1, round(kept_fraction * length)) if sliced else length
    last = (Ellipsis, slice(length - n, None), slice(None))
    rng = np.random.default_rng(seed)
    if buffered:
        # One float32 draw leaves half of a 64-bit output buffered; a
        # raw 64-bit draw never touches it, so neither may the mask draw.
        rng.random(dtype=np.float32)
        assert rng.bit_generator.state["has_uint32"] == 1
    oracle_rng = copy.deepcopy(rng)
    full_shape = (per_view,) + row_shape
    scaled = np.concatenate(
        [scaled_mask(oracle_rng, full_shape, p, dtype) for _ in range(views)]
    )[last]

    data = np.random.default_rng(seed + 1).standard_normal(scaled.shape).astype(dtype)
    x = Tensor(data, requires_grad=True)
    with mock.patch.object(F, "_DRAW_BLOCK", block):
        out = F.dropout(x, p, True, rng, seq_len=length if sliced else None)
    assert out.dtype == np.dtype(dtype)
    np.testing.assert_array_equal(out.data, data * scaled)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state

    grad = np.random.default_rng(seed + 2).standard_normal(scaled.shape).astype(dtype)
    out.backward(grad)
    np.testing.assert_array_equal(x.grad, grad * scaled)


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox])
def test_dropout_seq_len_on_other_bit_generators(bit_generator):
    """Generators without PCG64's per-output ``advance`` skip by drawing."""
    x = np.random.default_rng(0).standard_normal((6, 10, 4))
    full_rng = np.random.Generator(bit_generator(9))
    sliced_rng = np.random.Generator(bit_generator(9))
    full = F.dropout(Tensor(x), 0.3, True, full_rng)
    sliced = F.dropout(Tensor(x[:, -2:]), 0.3, True, sliced_rng, seq_len=10)
    np.testing.assert_array_equal(sliced.data, full.data[:, -2:])
    # Same stream position (MT19937's state holds an array).
    np.testing.assert_array_equal(full_rng.random(8), sliced_rng.random(8))


def test_dropout_seq_len_rejects_a_longer_slice():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="length-4"):
        F.dropout(Tensor(np.ones((2, 5, 3))), 0.5, True, rng, seq_len=4)
    with pytest.raises(ValueError, match="length-4"):
        F.dropout(Tensor(np.ones((2, 3, 5, 5))), 0.5, True, rng, seq_len=4)
    with pytest.raises(ValueError, match="length-4"):
        F.dropout(Tensor(np.ones((5, 3))), 0.5, True, rng, seq_len=4)
    with pytest.raises(ValueError, match="length-4"):
        F.dropout(Tensor(np.ones(5)), 0.5, True, rng, seq_len=4)
