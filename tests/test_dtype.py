"""Dtype-preservation sweep for the float32 end-to-end compute core.

Three layers of guarantees:

1. **Op level** — every differentiable op in ``autograd.functional``
   and the spectral op keep float32 inputs in float32, forward and
   backward (complex64 spectra in the filter path).
2. **Module level** — every ``nn`` module built with ``dtype=float32``
   produces float32 activations and float32 parameter/input gradients.
3. **System level** — every registry baseline trains a step fully in
   float32 (parameters, loss, grads, optimizer moments, eval scores),
   and a full SLIME4Rec train+eval run in float32 matches the float64
   run's HR/NDCG within 1e-3 on the synthetic dataset.

No process-wide dtype exists to pin: a python scalar in a binary op
takes the tensor operand's dtype (NumPy's NEP 50 weak-scalar rule), so
a float32 model multiplies by ``float32(0.1)`` and a float64 model by
the float64 constant (see docs/ARCHITECTURE.md, "Dtype contract").
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.fft

from repro.autograd import functional as F
from repro.autograd.spectral import spectral_filter
from repro.autograd.tensor import Tensor
from repro.baselines import BASELINE_NAMES, build_baseline
from repro.baselines.transformer import TransformerBlock
from repro.core.config import SlimeConfig
from repro.core.encoder import PointwiseFeedForward
from repro.core.filter_mixer import FilterMixerLayer
from repro.core.model import Slime4Rec
from repro.data.batching import Batch, BatchIterator
from repro.data.synthetic import load_preset
from repro.evaluation import Evaluator
from repro.nn import (
    GRU,
    Dropout,
    Embedding,
    HorizontalConv,
    LayerNorm,
    Linear,
    MultiHeadSelfAttention,
    VerticalConv,
    init,
)
from repro.optim import Adam, clip_grad_norm
from repro.train.trainer import TrainConfig, Trainer

DTYPES = [np.float32, np.float64]


@pytest.fixture
def tiny_dataset():
    return load_preset("beauty", scale=0.05, max_len=16)


def _param_t(rng, shape, dtype):
    return Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)


def _assert_graph_dtype(out, inputs, dtype):
    """Forward output and every backward gradient stay in ``dtype``."""
    assert out.dtype == dtype, f"forward produced {out.dtype}"
    F.sum(out).backward()
    for i, t in enumerate(inputs):
        assert t.grad is not None, f"input {i} got no gradient"
        assert t.grad.dtype == dtype, f"grad {i} is {t.grad.dtype}"


# ----------------------------------------------------------------------
# 1. Op-level sweep
# ----------------------------------------------------------------------

OP_CASES = {
    "add_scalar": lambda x: x + 1.5,
    "rsub_scalar": lambda x: 2.0 - x,
    "mul_scalar": lambda x: x * 0.1,
    "div_scalar": lambda x: x / 3.0,
    "rdiv": lambda x: 1.0 / x,
    "neg": lambda x: -x,
    "pow2": lambda x: x ** 2,
    "pow3": lambda x: x ** 3,
    "pow_frac": lambda x: x ** 1.7,
    "exp": F.exp,
    "log": F.log,
    "sqrt": F.sqrt,
    "tanh": F.tanh,
    "sigmoid": F.sigmoid,
    "logsigmoid": F.logsigmoid,
    "relu": F.relu,
    "gelu": F.gelu,
    "softmax": lambda x: F.softmax(x, axis=-1),
    "sum_axis": lambda x: F.sum(x, axis=1),
    "mean_all": F.mean,
    "mean_axis": lambda x: F.mean(x, axis=1),
    "l2_normalize": F.l2_normalize,
    "clip": lambda x: F.clip(x, 0.2, 0.8),
    "masked_fill": lambda x: F.masked_fill(x, x.data > 0.5, -1e9),
    "concat": lambda x: F.concat([x, x], axis=0),
    "stack": lambda x: F.stack([x, x], axis=0),
    "reshape": lambda x: F.reshape(x, (x.size,)),
    "transpose": lambda x: F.transpose(x, (1, 0)),
    "getitem": lambda x: x[1:, :2],
}


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("op", sorted(OP_CASES))
def test_functional_op_preserves_dtype(op, dtype, rng):
    # Positive inputs keep log/sqrt/pow well-defined.
    x = Tensor(rng.uniform(0.1, 1.0, size=(3, 4)).astype(dtype), requires_grad=True)
    _assert_graph_dtype(OP_CASES[op](x), [x], dtype)


PAIR_OPS = {"add": (F.add, np.add), "sub": (F.sub, np.subtract),
            "mul": (F.mul, np.multiply), "div": (F.div, np.divide)}


@pytest.mark.parametrize("scalar_first", [False, True], ids=["tensor-scalar", "scalar-tensor"])
@pytest.mark.parametrize("scalar", [3, 0.1], ids=["int", "float"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
@pytest.mark.parametrize("op", sorted(PAIR_OPS))
def test_python_scalar_takes_the_tensor_dtype(op, dtype, scalar, scalar_first, rng):
    """NEP 50: a python ``int``/``float`` operand is the constant
    ``np.asarray(s, np.result_type(t.dtype, s))`` — the tensor's dtype
    for float tensors — forward, backward and bit for bit."""
    f_op, np_op = PAIR_OPS[op]
    floating = np.dtype(dtype).kind == "f"
    data = rng.uniform(1.0, 4.0, size=(3, 4)) if floating else rng.integers(1, 5, size=(3, 4))
    t = Tensor(data.astype(dtype), requires_grad=floating)
    const = np.asarray(scalar, np.result_type(t.dtype, scalar))
    args, want_args = ((scalar, t), (const, t.data)) if scalar_first else ((t, scalar), (t.data, const))
    out = f_op(*args)
    want = np_op(*want_args)
    assert out.dtype == want.dtype
    assert np.array_equal(out.data, want)
    if floating:
        assert out.dtype == dtype
        F.sum(out).backward()
        assert t.grad.dtype == dtype


@pytest.mark.parametrize("dtype", DTYPES)
def test_binary_ops_preserve_dtype(dtype, rng):
    a = _param_t(rng, (3, 4), dtype)
    b = _param_t(rng, (3, 4), dtype)
    w = _param_t(rng, (4, 2), dtype)
    for out, inputs in [
        (F.add(a, b), [a, b]),
        (F.sub(a, b), [a, b]),
        (F.mul(a, b), [a, b]),
        (F.div(a, F.add(F.mul(b, b), 1.0)), [a, b]),
        (F.matmul(a, w), [a, w]),
    ]:
        _assert_graph_dtype(out, inputs, dtype)
        a.zero_grad(), b.zero_grad(), w.zero_grad()


@pytest.mark.parametrize("dtype", DTYPES)
def test_loss_ops_preserve_dtype(dtype, rng):
    logits = _param_t(rng, (6, 5), dtype)
    targets = rng.integers(0, 5, size=6)
    _assert_graph_dtype(F.cross_entropy(logits, targets), [logits], dtype)

    user = _param_t(rng, (2, 3, 4), dtype)
    table = _param_t(rng, (5, 4), dtype)
    labels = rng.integers(0, 5, size=(2, 3))
    labels[0, 1] = -100
    loss = F.linear_cross_entropy(user, table, labels, ignore_index=-100)
    _assert_graph_dtype(loss, [user, table], dtype)


@pytest.mark.parametrize("dtype", DTYPES)
def test_layer_norm_embedding_dropout_preserve_dtype(dtype, rng):
    x = _param_t(rng, (2, 3, 8), dtype)
    gamma = Tensor(np.ones(8, dtype=dtype), requires_grad=True)
    beta = Tensor(np.zeros(8, dtype=dtype), requires_grad=True)
    _assert_graph_dtype(F.layer_norm(x, gamma, beta), [x, gamma, beta], dtype)

    weight = _param_t(rng, (10, 4), dtype)
    idx = rng.integers(0, 10, size=(2, 5))
    _assert_graph_dtype(F.embedding(weight, idx), [weight], dtype)

    y = _param_t(rng, (4, 6), dtype)
    out = F.dropout(y, 0.5, training=True, rng=np.random.default_rng(0))
    _assert_graph_dtype(out, [y], dtype)


@pytest.mark.parametrize("dtype", DTYPES)
def test_spectral_ops_preserve_dtype(dtype, rng):
    n, d = 8, 3
    m = n // 2 + 1
    complex_dtype = np.complex64 if dtype == np.float32 else np.complex128
    x = _param_t(rng, (2, n, d), dtype)
    wr, wi = _param_t(rng, (m, d), dtype), _param_t(rng, (m, d), dtype)
    scale = np.full((m, 1), 0.3)  # float64, cast to the input dtype
    out = spectral_filter(x, [(scale, wr, wi)])
    # Bit for bit the FFT pipeline run wholly in the input's precision
    # (complex64 for float32): no float64 scale promotes the spectrum.
    filt = scale.astype(dtype) * (wr.data + 1j * wi.data)
    want = scipy.fft.irfft(scipy.fft.rfft(x.data, axis=1) * filt, n=n, axis=1)
    assert filt.dtype == complex_dtype and want.dtype == dtype
    np.testing.assert_array_equal(out.data, want)
    _assert_graph_dtype(out, [x, wr, wi], dtype)

    x2 = _param_t(rng, (2, n, d), dtype)
    params = [_param_t(rng, (m, d), dtype) for _ in range(4)]
    dfs_mask = np.array([[1], [1], [1], [0], [0]], dtype=float)
    sfs_mask = 1.0 - dfs_mask
    branches = [(0.5 * dfs_mask, params[0], params[1]), (0.5 * sfs_mask, params[2], params[3])]
    _assert_graph_dtype(spectral_filter(x2, branches), [x2] + params, dtype)


# ----------------------------------------------------------------------
# 2. Module-level sweep
# ----------------------------------------------------------------------

MODULE_CASES = {
    "linear": lambda dt, rng: (Linear(8, 4, rng=rng, dtype=dt), (3, 8)),
    "layer_norm": lambda dt, rng: (LayerNorm(8, dtype=dt), (3, 8)),
    "gru": lambda dt, rng: (GRU(8, 8, rng=rng, dtype=dt), (2, 5, 8)),
    "horizontal_conv": lambda dt, rng: (HorizontalConv(6, 8, 3, 4, rng=rng, dtype=dt), (2, 6, 8)),
    "vertical_conv": lambda dt, rng: (VerticalConv(6, 4, rng=rng, dtype=dt), (2, 6, 8)),
    "attention": lambda dt, rng: (
        MultiHeadSelfAttention(8, 2, dropout=0.2, rng=rng, dtype=dt),
        (2, 6, 8),
    ),
    "ffn": lambda dt, rng: (PointwiseFeedForward(8, rng=rng, dtype=dt), (2, 6, 8)),
    "transformer_block": lambda dt, rng: (
        TransformerBlock(8, num_heads=2, dropout=0.2, rng=rng, dtype=dt),
        (2, 6, 8),
    ),
    "filter_mixer": lambda dt, rng: (
        FilterMixerLayer(
            seq_len=8,
            hidden_dim=4,
            dfs_mask=np.array([1, 1, 1, 0, 0], dtype=float),
            sfs_mask=np.array([0, 0, 1, 1, 1], dtype=float),
            gamma=0.5,
            dropout=0.2,
            rng=rng,
            dtype=dt,
        ),
        (2, 8, 4),
    ),
    "filter_mixer_single_branch": lambda dt, rng: (
        FilterMixerLayer(
            seq_len=8,
            hidden_dim=4,
            dfs_mask=np.ones(5),
            sfs_mask=None,
            gamma=0.0,
            dropout=0.2,
            rng=rng,
            dtype=dt,
        ),
        (2, 8, 4),
    ),
}


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("case", sorted(MODULE_CASES))
def test_nn_module_preserves_dtype(case, dtype, rng):
    module, shape = MODULE_CASES[case](dtype, rng)
    for name, param in module.named_parameters():
        assert param.dtype == dtype, f"param {name} initialized as {param.dtype}"
    x = Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)
    out = module(x)
    assert out.dtype == dtype
    F.sum(out).backward()
    assert x.grad is not None and x.grad.dtype == dtype
    for name, param in module.named_parameters():
        assert param.grad is not None, f"param {name} got no gradient"
        assert param.grad.dtype == dtype, f"param {name} grad is {param.grad.dtype}"


@pytest.mark.parametrize("dtype", DTYPES)
def test_embedding_module_preserves_dtype(dtype, rng):
    emb = Embedding(10, 4, padding_idx=0, rng=rng, dtype=dtype)
    out = emb(rng.integers(0, 10, size=(2, 5)))
    assert out.dtype == dtype
    F.sum(out).backward()
    assert emb.weight.grad.dtype == dtype


def test_dropout_follows_input_dtype(rng):
    drop = Dropout(0.5, rng=np.random.default_rng(0))
    for dtype in DTYPES:
        out = drop(Tensor(rng.standard_normal((3, 4)).astype(dtype)))
        assert out.dtype == dtype


# ----------------------------------------------------------------------
# 3. Dtype knob plumbing
# ----------------------------------------------------------------------

def test_default_dtype_is_float64():
    assert init.resolve_dtype(None) == np.float64
    model = Linear(4, 2)
    assert model.weight.dtype == np.float64


def test_resolve_dtype_rejects_non_float():
    with pytest.raises(ValueError):
        init.resolve_dtype(np.int64)
    with pytest.raises(ValueError):
        init.resolve_dtype("float16")


def test_slime_config_normalizes_dtype():
    assert SlimeConfig(num_items=5, dtype=np.float32).dtype == "float32"
    assert SlimeConfig(num_items=5, dtype="float64").dtype == "float64"
    assert SlimeConfig(num_items=5).dtype is None
    with pytest.raises(ValueError):
        SlimeConfig(num_items=5, dtype="int32")
    with pytest.raises(ValueError):
        SlimeConfig(num_items=5, dtype="floatx")  # unknown name, not TypeError


def test_module_to_casts_parameters(rng):
    cfg = SlimeConfig(num_items=20, max_len=8, hidden_dim=8, num_layers=1, seed=0)
    model = Slime4Rec(cfg)
    assert all(p.dtype == np.float64 for p in model.parameters())
    model.to(np.float32)
    assert all(p.dtype == np.float32 for p in model.parameters())
    assert model.dtype == np.float32
    assert model.config.dtype == "float32"  # config keeps describing the model
    assert cfg.dtype is None  # ...without mutating the caller's shared config
    ids = rng.integers(1, 20, size=(2, 8))
    assert model.predict_scores(ids).dtype == np.float32
    with pytest.raises(ValueError):
        model.to(np.float16)  # same float32/float64 contract as construction


@pytest.mark.parametrize(
    "variant", [{}, {"use_dfs": False}, {"use_sfs": False}], ids=["default", "wo_dfs", "wo_sfs"]
)
def test_module_to_float32_keeps_spectral_path_single_precision(variant):
    """A float64 model cast with ``.to(float32)`` trains bit for bit like
    one built in float32 from the same cast weights: the branch scales
    follow the parameter dtype, so no spectrum is promoted to complex128."""
    models = {}
    for dtype in ("float64", "float32"):
        cfg = SlimeConfig(
            num_items=20, max_len=10, hidden_dim=8, num_layers=2, cl_weight=0.1,
            seed=0, dtype=dtype, **variant,
        )
        models[dtype] = Slime4Rec(cfg)
    cast, built = models["float64"].to(np.float32), models["float32"]
    built.load_state_dict(cast.state_dict())
    rng = np.random.default_rng(4)
    inputs = rng.integers(1, 21, size=(4, 10))
    inputs[:, :3] = 0
    batch = Batch(
        input_ids=inputs,
        targets=rng.integers(1, 21, size=4),
        positive_ids=rng.integers(1, 21, size=(4, 10)),
    )
    losses = []
    for model in (cast, built):
        model.train()
        loss = model.loss(batch)
        loss.backward()
        losses.append(loss.data)
    assert losses[0].dtype == np.float32
    assert np.array_equal(losses[0], losses[1])
    grads = dict(built.named_parameters())
    for name, param in cast.named_parameters():
        assert param.grad.dtype == np.float32, name
        assert np.array_equal(param.grad, grads[name].grad), name


def test_float32_init_is_rounded_float64_init(rng):
    """Same seed, same draws: the float32 model is the cast float64 model."""
    a = Linear(16, 8, rng=np.random.default_rng(7), dtype=np.float64)
    b = Linear(16, 8, rng=np.random.default_rng(7), dtype=np.float32)
    np.testing.assert_array_equal(a.weight.data.astype(np.float32), b.weight.data)


# ----------------------------------------------------------------------
# 4. System-level: every registry baseline, one full float32 step
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", BASELINE_NAMES + ["S3Rec"])
def test_baseline_trains_fully_in_float32(name, tiny_dataset):
    model = build_baseline(name, tiny_dataset, hidden_dim=32, seed=0, dtype="float32")
    assert getattr(model, "dtype", np.float32) == np.float32
    bad = {n: p.dtype for n, p in model.named_parameters() if p.dtype != np.float32}
    assert not bad, f"non-float32 parameters: {bad}"

    iterator = BatchIterator(tiny_dataset, batch_size=32, with_same_target=True, seed=0)
    batch = next(iter(iterator.epoch()))
    optimizer = Adam(model.parameters())
    loss = model.loss(batch)
    assert loss.dtype == np.float32, f"loss widened to {loss.dtype}"
    loss.backward()
    clip_grad_norm(optimizer.params, 5.0)
    bad = {n: p.grad.dtype for n, p in model.named_parameters()
           if p.grad is not None and p.grad.dtype != np.float32}
    assert not bad, f"non-float32 gradients: {bad}"
    optimizer.step()
    assert all(m.dtype == np.float32 for m in optimizer._m)
    assert all(v.dtype == np.float32 for v in optimizer._v)
    assert all(s.dtype == np.float32 for s in optimizer._scratch)
    assert all(p.dtype == np.float32 for p in model.parameters())

    scores = np.asarray(model.predict_scores(batch.input_ids[:4]))
    assert scores.dtype == np.float32, "evaluation must rank in the model dtype"


CONTRASTIVE_MODELS = ["SLIME4Rec", "DuoRec", "CL4SRec", "CoSeRec", "ContrastVAE"]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", CONTRASTIVE_MODELS)
def test_contrastive_loss_keeps_model_dtype(name, dtype, tiny_dataset):
    """``rec + cl_weight * cl`` multiplies a 0-d loss by a python
    float; the product must keep the model dtype."""
    model = build_baseline(name, tiny_dataset, hidden_dim=16, seed=0, dtype=dtype)
    iterator = BatchIterator(tiny_dataset, batch_size=16, with_same_target=True, seed=0)
    loss = model.loss(next(iter(iterator.epoch())))
    assert loss.dtype == model.dtype == dtype


@pytest.mark.parametrize("name", ["SLIME4Rec", "DuoRec", "ContrastVAE"])
def test_float64_loss_takes_float64_constants(name, tiny_dataset, monkeypatch):
    """A float64 model's loss equals, bit for bit, the same loss with
    every python constant (λ, 1/τ, the KL weight) pre-cast to float64."""
    batch = next(iter(BatchIterator(tiny_dataset, batch_size=16, with_same_target=True, seed=0).epoch()))

    def loss():
        return build_baseline(name, tiny_dataset, hidden_dim=16, seed=0, dtype="float64").loss(batch)

    weak = loss()
    operands = F._operands
    monkeypatch.setattr(
        F, "_operands",
        lambda a, b: operands(*(np.asarray(v, np.float64) if type(v) in (int, float) else v
                                for v in (a, b))),
    )
    precast = loss()
    assert weak.dtype == precast.dtype == np.float64
    assert np.array_equal(weak.data, precast.data)


# ----------------------------------------------------------------------
# 5. System-level: float32 train+eval matches float64 within tolerance
# ----------------------------------------------------------------------

def _train_and_eval(dataset, dtype):
    cfg = SlimeConfig(
        num_items=dataset.num_items,
        max_len=dataset.max_len,
        hidden_dim=32,
        num_layers=2,
        seed=0,
        dtype=dtype,
    )
    model = Slime4Rec(cfg)
    trainer = Trainer(model, dataset, TrainConfig(epochs=2, batch_size=128, patience=0, seed=0))
    history = trainer.fit()
    return model, trainer, history, trainer.test()


def test_float32_full_run_matches_float64_metrics():
    dataset = load_preset("beauty", scale=0.25, max_len=24)
    _, _, hist64, res64 = _train_and_eval(dataset, "float64")
    model32, trainer32, hist32, res32 = _train_and_eval(dataset, "float32")

    # Losses agree to float32 resolution; metrics within the 1e-3 budget.
    np.testing.assert_allclose(hist32.losses, hist64.losses, rtol=1e-5)
    for key, value in res64.metrics.items():
        assert abs(res32.metrics[key] - value) <= 1e-3, (
            f"{key}: float32={res32.metrics[key]:.6f} float64={value:.6f}"
        )

    # After the full run nothing in the float32 model drifted to float64:
    # parameters, gradients, and optimizer state all stayed narrow.
    assert all(p.dtype == np.float32 for p in model32.parameters())
    assert all(
        p.grad.dtype == np.float32
        for p in model32.parameters()
        if p.grad is not None
    )
    opt = trainer32.optimizer
    assert all(buf.dtype == np.float32 for buf in opt._m + opt._v + opt._scratch)

    # And the evaluator ranked float32 scores without widening.
    evaluator = Evaluator(dataset)
    context = model32.score_context()
    assert context.dtype == np.float32
    assert evaluator.ranks(model32, split="test").size > 0
