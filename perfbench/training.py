"""Training workloads: SLIME4Rec on the dynamic engine, SASRec on tape replay.

Training follows ``Trainer.fit`` through the same public calls in the
same order (``BatchIterator.epoch``, ``model.loss`` or
``TapeExecutor.step``, ``.backward()``, ``clip_grad_norm``,
``Adam.step``, padding rows re-zeroed, ``Evaluator.evaluate`` on the
valid split once per epoch).  ``Trainer.fit`` itself is not used
because per-step times cannot be taken from outside it.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import math
import struct
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from perfbench import hostref
from perfbench.stats import RECORD_PCTS, choose_tail, median, percentile
from perfbench.tracing import Tracer

#: Geometry shared by both training workloads (the paper's N and d).
MAX_LEN = 50
HIDDEN_DIM = 64
BATCH_SIZE = 128
LR = 1e-3
GRAD_CLIP = 5.0  # TrainConfig's default
#: Warm-up steps per set-up: the tape workload captures on the first
#: and replays on the rest; the equality cell replays the same steps
#: on a dynamic replica.
WARMUP_STEPS = 3
#: Set-ups per run; set-up metrics are their medians.
SETUP_REPS = 2
#: Every timed run trains at least this many whole epochs (~52 steps),
#: so the tail percentile keeps 10 samples beyond it.
MIN_EPOCHS = 2


@dataclass(frozen=True)
class TrainSpec:
    model: str
    static_graph: bool
    same_target: bool


SPECS = {
    "train_slime_dynamic": TrainSpec("SLIME4Rec", static_graph=False, same_target=True),
    "train_sasrec_tape": TrainSpec("SASRec", static_graph=True, same_target=False),
}

#: Module methods wrapped in the traced run: (module path, class,
#: method, span name).  Their self times are children of step.forward.
MODULE_SPANS = (
    ("repro.nn", "LayerNorm", "forward", "nn.layer_norm"),
    ("repro.nn", "Dropout", "forward", "nn.dropout"),
    ("repro.nn", "Embedding", "forward", "nn.embedding"),
    ("repro.nn", "MultiHeadSelfAttention", "forward", "nn.attention"),
    ("repro.core.encoder", "PointwiseFeedForward", "forward", "nn.ffn"),
    ("repro.core.filter_mixer", "FilterMixerLayer", "mix_spectra", "core.filter_mixer"),
    ("repro.core.encoder", "SequentialEncoderBase", "prediction_loss", "head.loss"),
)
#: The top-level layers of a step; ``step.free`` is the release of the
#: dynamic engine's autograd graph (~0 on tape replay).
STEP_LAYERS = ("data.batch", "step.forward", "step.backward", "optim.clip",
               "optim.adam", "step.free")


def loss_digest(losses) -> str:
    """SHA-256 over the exact bits of a loss sequence."""
    h = hashlib.sha256()
    for value in losses:
        h.update(struct.pack("<d", float(value)))
    return h.hexdigest()[:16]


def source_digest() -> str:
    """Hash of the program's Python sources: loss digests are compared
    only between runs of the same code."""
    import repro

    h = hashlib.sha256()
    root = Path(repro.__file__).resolve().parent
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


class Run:
    """One set-up of a training workload: data, model, optimizer, state."""

    def __init__(self, spec: TrainSpec, seed: int, dataset=None) -> None:
        """Set up and warm up; ``dataset`` reuses an already generated one."""
        from repro.data.dataset import SequenceDataset
        from repro.data.synthetic import PRESETS, generate_interactions

        self.spec = spec
        self.seed = seed
        self.phase_s = {}  # CPU seconds per set-up phase
        wall_start = time.perf_counter()
        start = time.process_time()
        if dataset is None:
            cfg = replace(PRESETS["beauty"], seed=seed)
            dataset = SequenceDataset(
                generate_interactions(cfg), name=cfg.name, max_len=MAX_LEN, k_core=5
            )
        self.dataset = dataset
        self.phase_s["data"] = time.process_time() - start

        start = time.process_time()
        self.build()
        self.phase_s["model"] = time.process_time() - start

        start = time.process_time()
        self.model.train()
        self.warmup_losses = [train_step(self, b, _OFF) for b in self.warmup_batches()]
        self.phase_s["warmup"] = time.process_time() - start
        gc.collect()
        self.setup_s = sum(self.phase_s.values())
        self.setup_wall_s = time.perf_counter() - wall_start

    def build(self) -> None:
        from repro.autograd.graph import TapeExecutor
        from repro.baselines import build_baseline
        from repro.data.batching import BatchIterator
        from repro.evaluation.evaluator import Evaluator
        from repro.optim import Adam

        spec = self.spec
        extra = {"static_graph": True} if spec.static_graph else {}
        self.model = build_baseline(
            spec.model, self.dataset, hidden_dim=HIDDEN_DIM, seed=self.seed,
            dtype="float32", **extra,
        )
        self.optimizer = Adam(self.model.parameters(), lr=LR, weight_decay=0.0)
        self.iterator = BatchIterator(
            self.dataset, batch_size=BATCH_SIZE,
            with_same_target=spec.same_target, seed=self.seed,
        )
        self.evaluator = Evaluator(self.dataset)
        self.executor = TapeExecutor(self.model) if spec.static_graph else None

    def warmup_batches(self):
        """The first WARMUP_STEPS batches of a side iterator (seed + 1),
        so warm-up never consumes the timed epochs' stream."""
        from repro.data.batching import BatchIterator

        side = BatchIterator(
            self.dataset, batch_size=BATCH_SIZE,
            with_same_target=self.spec.same_target, seed=self.seed + 1,
        )
        return list(itertools.islice(side.epoch(), WARMUP_STEPS))


_OFF = Tracer(enabled=False)


def train_step(run, batch, tracer: Tracer) -> float:
    """One optimizer step in ``Trainer._train_step``'s order.

    Returns the loss; a non-finite loss or gradient norm skips the
    update (the caller counts the step as failed).
    """
    from repro.optim import clip_grad_norm

    optimizer = run.optimizer
    optimizer.zero_grad()
    with tracer.span("step.forward"):
        if run.executor is not None:
            graph = run.executor.step(batch)
            loss = graph.loss
        else:
            graph = run.model.loss(batch)
            loss = float(graph.data)
    if not math.isfinite(loss):
        optimizer.zero_grad()
        return loss
    with tracer.span("step.backward"):
        graph.backward()
    with tracer.span("optim.clip"):
        norm = clip_grad_norm(optimizer.params, GRAD_CLIP)
    if not math.isfinite(norm):
        optimizer.zero_grad()
        return math.nan
    with tracer.span("optim.adam"):
        optimizer.step()
    for module in run.model.modules():
        zero = getattr(module, "zero_padding_row", None)
        if callable(zero):
            zero()
    with tracer.span("step.free"):
        del graph  # drops the last reference to the step's autograd graph
    return loss


def equality_cell(spec: TrainSpec, seed: int, tape_run: Run) -> list:
    """Tape warm-up vs a dynamic-engine replica: losses and parameters
    must match bitwise.  Returns a list of failure messages."""
    replica = Run(replace(spec, static_graph=False), seed, dataset=tape_run.dataset)
    failures = []
    if replica.warmup_losses != tape_run.warmup_losses:
        failures.append(
            f"tape warm-up losses {tape_run.warmup_losses} "
            f"!= dynamic {replica.warmup_losses}"
        )
    dynamic = dict(replica.model.named_parameters())
    for name, param in tape_run.model.named_parameters():
        if not np.array_equal(param.data, dynamic[name].data):
            failures.append(f"parameter {name} differs from the dynamic replica")
            break
    return failures


def set_up(spec: TrainSpec, seed: int):
    """``(run, records)``: SETUP_REPS set-ups, one at a time, the last of
    which trains, then the tape's equality cell.  ``records`` holds each
    set-up's times and warm-up losses.  The reference process goes
    through the same sequence, so both start their timed steps from the
    same allocator history."""
    records = []
    run = None
    for _ in range(SETUP_REPS):
        if run is not None:
            run = None
            gc.collect()
        run = Run(spec, seed)
        records.append({"setup_s": run.setup_s, "setup_wall_s": run.setup_wall_s,
                        "phase_s": run.phase_s, "warmup_losses": run.warmup_losses})
    run.equality_failures = equality_cell(spec, seed, run) if spec.static_graph else []
    gc.collect()
    return run, records


def run_workload(name: str, seed: int, seconds: float, tracer: Tracer,
                 digests: dict, reference=None) -> dict:
    """Set up, train whole epochs for about ``seconds``, check, report.

    ``digests`` maps ``workload:seed:source`` keys to the loss digests
    of earlier runs; this run's digest is checked against it and added.
    ``reference`` (a :class:`perfbench.hostref.Reference`, not yet
    started) takes turns between the timed steps and scales the time
    metrics; without it (traced runs) no time metric is reported.
    """
    spec = SPECS[name]
    checks = []  # (description, ok)

    run, records = set_up(spec, seed)
    runs_setup = [r["setup_s"] for r in records]
    setup_wall = [r["setup_wall_s"] for r in records]
    phases = [r["phase_s"] for r in records]
    warm_digests = [loss_digest(r["warmup_losses"]) for r in records]
    checks.append(("warm-up losses finite",
                   all(math.isfinite(v) for v in run.warmup_losses)))
    checks.append(("warm-up loss digest identical across set-ups",
                   len(set(warm_digests)) == 1))
    if spec.static_graph:
        for message in run.equality_failures:
            print(f"equality cell: {message}")
        checks.append(("tape matches dynamic replica bitwise", not run.equality_failures))
    if reference is not None:
        reference.start()
        reference.turn()  # the reference's set-up

    # -- timed epochs ------------------------------------------------
    if tracer.enabled:
        install_module_spans(tracer)
    model, iterator, evaluator = run.model, run.iterator, run.evaluator
    cpu_ms, wall_ms, losses, epoch_s, valid = [], [], [], [], []
    instances = 0
    step_id = 0
    bad_steps = 0
    ref_wall_s = 0.0
    start = time.perf_counter()
    cpu_start = time.process_time()
    while True:
        epoch_start = time.perf_counter()
        model.train()
        batches = iterator.epoch()
        while True:
            c0 = time.process_time()
            t0 = time.perf_counter()
            with tracer.span("step", ident=step_id):
                with tracer.span("data.batch"):
                    batch = next(batches, None)
                if batch is None:
                    step_id += 1  # the end-of-epoch fetch is not a step
                    break
                loss = train_step(run, batch, tracer)
            wall_ms.append((time.perf_counter() - t0) * 1000.0)
            cpu_ms.append((time.process_time() - c0) * 1000.0)
            losses.append(loss)
            instances += len(batch)
            if not math.isfinite(loss):
                bad_steps += 1
            step_id += 1
            if reference is not None:
                # the reference steps after every step, so every step
                # of either process follows one of the other's and
                # starts with the same cold caches
                r0 = time.perf_counter()
                reference.turn()
                ref_wall_s += time.perf_counter() - r0
        with tracer.span("eval.valid", ident=f"eval-{len(epoch_s)}"):
            result = evaluator.evaluate(model, split="valid")
        valid.append(dict(result.metrics))
        epoch_s.append(time.perf_counter() - epoch_start)
        elapsed = time.perf_counter() - start
        if len(epoch_s) >= MIN_EPOCHS and elapsed + epoch_s[-1] > seconds:
            break
    timed_s = time.perf_counter() - start - ref_wall_s
    timed_cpu_s = time.process_time() - cpu_start
    if tracer.enabled:
        tracer.unwrap_all()
    ref = reference.finish() if reference is not None else None

    checks.append(("validation metrics finite and in [0, 1]", all(
        math.isfinite(v) and 0.0 <= v <= 1.0 for m in valid for v in m.values()
    )))
    steps_per_epoch = len(iterator)
    digest = loss_digest(run.warmup_losses + losses[:steps_per_epoch])
    key = f"{name}:{seed}:{source_digest()}"
    checks.append(("loss digest identical to earlier runs of this seed",
                   digests.setdefault(key, digest) == digest))

    tail_pct = choose_tail(len(cpu_ms))
    # unscaled, for the record
    cpu_metrics = {
        "setup_s": median(runs_setup),
        "p50_ms": percentile(cpu_ms, 50.0),
        "tail_ms": percentile(cpu_ms, tail_pct),
        "throughput_per_s": instances / timed_cpu_s,
    }
    failed_checks = [desc for desc, ok in checks if not ok]
    record = {
        "samples": len(cpu_ms),
        "epochs": len(epoch_s),
        "steps_per_epoch": steps_per_epoch,
        "instances": instances,
        "timed_s": timed_s,
        "timed_cpu_s": timed_cpu_s,
        "tail_pct": tail_pct,
        "cpu_percentiles_ms": {f"p{q:g}": percentile(cpu_ms, q) for q in RECORD_PCTS},
        "wall_percentiles_ms": {f"p{q:g}": percentile(wall_ms, q) for q in RECORD_PCTS},
        "wall_throughput_per_s": instances / timed_s,
        "loss_digest": digest,
        "final_loss": losses[-1],
        "valid": valid[-1],
        "setup_cpu_runs_s": runs_setup,
        "setup_wall_runs_s": setup_wall,
        "failed_checks": failed_checks,
        "cpu_metrics": cpu_metrics,
    }
    metrics = {}
    if ref is not None:
        metrics, record["reference"] = hostref.scale(
            name, [[v] for v in cpu_ms], ref, cpu_metrics["setup_s"],
            cpu_metrics["throughput_per_s"], tail_pct)
    if run.executor is not None:
        record["tape"] = run.executor.stats()
    layers = {}
    if tracer.enabled:
        layers = layer_metrics(tracer, wall_ms, phases, run, record)
    return {
        "attempted": len(cpu_ms) + len(checks),
        "failed": bad_steps + len(failed_checks),
        "metrics": metrics,
        "layers": layers,
        "record": record,
    }


def install_module_spans(tracer: Tracer) -> None:
    import importlib

    for module_path, cls_name, method, span_name in MODULE_SPANS:
        owner = getattr(importlib.import_module(module_path), cls_name)
        tracer.wrap(owner, method, span_name)


def layer_metrics(tracer: Tracer, wall_ms, phases, run, record) -> dict:
    """Per-layer numbers of a traced training run; adds the steps each
    module median covers to ``record``."""
    inclusive = tracer.totals_by_ident(STEP_LAYERS + ("eval.valid",), use_self=False)
    own = tracer.totals_by_ident(
        [span for *_, span in MODULE_SPANS] + ["step"], use_self=True
    )

    steps = set(inclusive["step.forward"])

    def per_step(table):
        return [v * 1000.0 for k, v in table.items() if k in steps]

    out = {name + "_ms": median(per_step(inclusive[name])) for name in STEP_LAYERS}
    for *_, span in MODULE_SPANS:
        samples = per_step(own[span])
        if samples:  # absent modules are listed by the runner, not zeroed
            out[span + "_ms"] = median(samples)
    out["eval.valid_ms"] = median([v * 1000.0 for v in inclusive["eval.valid"].values()])
    out["trace.p50_ms"] = percentile(wall_ms, 50.0)
    out["trace.unaccounted_ms"] = median(per_step(own["step"]))
    for key in ("data", "model", "warmup"):
        out[f"setup.{key}_s"] = median([p[key] for p in phases])
    if run.executor is not None:
        stats = run.executor.stats()
        total = stats["captures"] + stats["replays"] + stats["fallback_steps"]
        out["tape.captures"] = stats["captures"]
        out["tape.replays"] = stats["replays"]
        out["tape.fallbacks"] = stats["fallback_steps"]
        out["tape.replay_share"] = stats["replays"] / max(total, 1)
    # how many steps each module metric is a median over (the tape
    # workload runs module forwards only on capture/fallback steps)
    record["module_steps"] = {
        span: len(per_step(own[span])) for *_, span in MODULE_SPANS
    }
    return out


def reference_turns(name: str, seed: int, turns) -> dict:
    """The reference process's side of a training run: set up on the
    first turn, then one optimizer step per turn, cycling through
    epochs without validation."""
    spec = SPECS[name]
    run, batches, cpu_ms, records = None, None, [], []
    for _ in turns:
        if run is None:
            run, records = set_up(spec, seed)
            batches = run.iterator.epoch()
            continue
        batch = next(batches, None)
        if batch is None:
            batches = run.iterator.epoch()
            batch = next(batches)
        c0 = time.process_time()
        train_step(run, batch, _OFF)
        cpu_ms.append((time.process_time() - c0) * 1000.0)
    return {"unit_ms": cpu_ms, "setup_s": median([r["setup_s"] for r in records])}
