"""Training-step throughput of each model family, in both dtypes.

Not a paper artifact, but the number a downstream user asks first:
how expensive is one optimizer step of SLIME4Rec vs the baselines on
identical data — and how much the float32 compute core saves over the
float64 default (the measured comparison is committed under
``benchmarks/results/dtype_step_time.json``).

The models run on the shared per-step workspace fast paths by default
(fused Q/K/V attention, scipy-backed spectral FFTs with workspace
scratch reuse, seed-compatible dropout, and the stacked ``(3B, N, d)``
multi-view contrastive encode).  Extra variants measure the opt-in
non-seed-compatible dropout-mask path
(``test_train_step_throughput_fast_masks``), the static-graph tape
replay (``test_train_step_static_graph_ab``), and the chunked
full-catalog cross-entropy (``test_train_step_chunked_ce``).
``docs/PERFORMANCE.md`` documents how to read and record the results.
"""

import numpy as np
import pytest

from repro.baselines import build_baseline
from repro.data.batching import BatchIterator
from repro.nn.workspace import fast_dropout_masks
from repro.optim import Adam
from repro.train import TrainConfig, Trainer

MODELS = ["SASRec", "FMLP-Rec", "GRU4Rec", "SLIME4Rec", "DuoRec"]
DTYPES = ["float64", "float32"]


@pytest.fixture(scope="module")
def setup(request):
    from repro.data.synthetic import load_preset

    dataset = load_preset("beauty", scale=0.2, max_len=32)
    return dataset


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", MODELS)
def test_train_step_throughput(benchmark, setup, name, dtype):
    dataset = setup
    model = build_baseline(name, dataset, hidden_dim=64, seed=0, dtype=dtype)
    iterator = BatchIterator(dataset, batch_size=128, with_same_target=True, seed=0)
    batch = next(iter(iterator.epoch()))
    optimizer = Adam(model.parameters())

    def step():
        optimizer.zero_grad()
        loss = model.loss(batch)
        loss.backward()
        optimizer.step()
        return float(loss.data)

    result = benchmark(step)
    assert np.isfinite(result)


@pytest.mark.parametrize("static", [True, False], ids=["static_graph", "dynamic"])
def test_train_step_static_graph_ab(benchmark, setup, static):
    """Tape replay vs per-step dynamic graph construction.

    Float32 SLIME4Rec through the static-graph executor: the first step
    captures the tape (outside the timing, via warmup rounds), every
    timed step replays it as a flat loop of kernel calls.  The dynamic
    arm runs the identical optimizer loop without an executor.  The
    committed interleaved comparison lives in
    ``benchmarks/results/static_graph_step_time.json``
    (``bench_static_graph.py``).
    """
    from repro.autograd.graph import TapeExecutor

    dataset = setup
    model = build_baseline("SLIME4Rec", dataset, hidden_dim=64, seed=0, dtype="float32")
    iterator = BatchIterator(dataset, batch_size=128, with_same_target=True, seed=0)
    batch = next(iter(iterator.epoch()))
    optimizer = Adam(model.parameters())
    executor = TapeExecutor(model) if static else None

    def step():
        optimizer.zero_grad()
        if executor is not None:
            result = executor.step(batch)
            result.backward()
            value = result.loss
        else:
            loss = model.loss(batch)
            loss.backward()
            value = float(loss.data)
        optimizer.step()
        return value

    result = benchmark(step)
    assert np.isfinite(result)


def test_train_step_chunked_ce(benchmark, setup):
    """Float32 SLIME4Rec step with the streaming chunked cross-entropy."""
    dataset = setup
    model = build_baseline(
        "SLIME4Rec", dataset, hidden_dim=64, seed=0, dtype="float32",
        ce_chunk_size=512,
    )
    iterator = BatchIterator(dataset, batch_size=128, with_same_target=True, seed=0)
    batch = next(iter(iterator.epoch()))
    optimizer = Adam(model.parameters())

    def step():
        optimizer.zero_grad()
        loss = model.loss(batch)
        loss.backward()
        optimizer.step()
        return float(loss.data)

    result = benchmark(step)
    assert np.isfinite(result)


@pytest.mark.parametrize("sampling", ["uniform", "log_uniform"])
def test_train_step_sampled_softmax(benchmark, setup, sampling):
    """Float32 SLIME4Rec step with sampled-softmax training (K=128).

    At the smoke geometry's small catalog this mostly measures the
    overhead floor; the catalog-scaling comparison against the chunked
    full-catalog CE lives in ``bench_sampled_softmax.py`` (committed
    record ``benchmarks/results/sampled_softmax_step_time.json``).
    """
    dataset = setup
    model = build_baseline(
        "SLIME4Rec", dataset, hidden_dim=64, seed=0, dtype="float32",
        train_num_negatives=128, negative_sampling=sampling,
    )
    iterator = BatchIterator(dataset, batch_size=128, with_same_target=True, seed=0)
    batch = next(iter(iterator.epoch()))
    optimizer = Adam(model.parameters())

    def step():
        optimizer.zero_grad()
        loss = model.loss(batch)
        loss.backward()
        optimizer.step()
        return float(loss.data)

    result = benchmark(step)
    assert np.isfinite(result)


@pytest.mark.parametrize(
    "every", [0, 8], ids=["no_checkpoint", "checkpoint_every_8"]
)
def test_train_step_checkpoint_overhead(benchmark, setup, tmp_path, every):
    """Float32 SLIME4Rec step with periodic full-run-state checkpointing.

    The ``checkpoint_every_8`` variant amortizes one durable
    :class:`~repro.utils.io.CheckpointStore` save (model + optimizer +
    RNG streams, atomic write + fsync + checksum) over every 8 steps;
    ``no_checkpoint`` is the same trainer step without a store.  The
    committed epoch-boundary A/B lives in
    ``benchmarks/results/checkpoint_overhead.json``
    (``bench_checkpoint_overhead.py``).
    """
    dataset = setup
    model = build_baseline("SLIME4Rec", dataset, hidden_dim=64, seed=0, dtype="float32")
    config = TrainConfig(
        batch_size=128,
        checkpoint_dir=str(tmp_path / "store") if every else None,
        checkpoint_every=every,
        keep_last=2,
    )
    trainer = Trainer(model, dataset, config, with_same_target=True)
    batch = next(iter(trainer.iterator.epoch()))
    model.train()

    def step():
        trainer._train_step(batch)
        return trainer._epoch_losses[-1]

    result = benchmark(step)
    assert np.isfinite(result)


@pytest.mark.parametrize("name", ["SLIME4Rec", "SASRec"])
def test_train_step_throughput_fast_masks(benchmark, setup, name):
    """Float32 step time with the fast (non-seed-compatible) dropout masks."""
    dataset = setup
    model = build_baseline(name, dataset, hidden_dim=64, seed=0, dtype="float32")
    iterator = BatchIterator(dataset, batch_size=128, with_same_target=True, seed=0)
    batch = next(iter(iterator.epoch()))
    optimizer = Adam(model.parameters())

    def step():
        optimizer.zero_grad()
        loss = model.loss(batch)
        loss.backward()
        optimizer.step()
        return float(loss.data)

    with fast_dropout_masks():
        result = benchmark(step)
    assert np.isfinite(result)
