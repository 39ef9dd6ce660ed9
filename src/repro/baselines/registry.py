"""Factory mapping Table II model names to constructors."""

from __future__ import annotations

from typing import Dict, List

from repro.baselines.bert4rec import BERT4Rec
from repro.baselines.bprmf import BPRMF
from repro.baselines.caser import Caser
from repro.baselines.cl4srec import CL4SRec
from repro.baselines.contrastvae import ContrastVAE
from repro.baselines.coserec import CoSeRec
from repro.baselines.duorec import DuoRec
from repro.baselines.fmlprec import FMLPRec
from repro.baselines.gru4rec import GRU4Rec
from repro.baselines.s3rec import S3Rec
from repro.baselines.sasrec import SASRec
from repro.core.config import SlimeConfig
from repro.core.model import Slime4Rec
from repro.data.dataset import SequenceDataset

__all__ = ["BASELINE_NAMES", "build_baseline"]

#: Prediction-loss knobs, the arguments of
#: :meth:`SequentialEncoderBase.configure_head` (SLIME4Rec carries them
#: as ``SlimeConfig`` fields).  ``build_baseline`` extracts these from
#: ``overrides`` and applies them uniformly, so one switch turns on the
#: sampled-softmax training loss for any Table II model whose objective
#: runs through the shared ``prediction_loss`` head.
LOSS_KNOBS = ("train_num_negatives", "negative_sampling")

#: Models whose training loss bypasses ``prediction_loss`` entirely
#: (Cloze over positions, variational CE composition, pairwise BPR).
#: Passing a loss knob for these would be a silent no-op — the user
#: would believe sampled training is on while every step still runs
#: the bespoke objective — so ``build_baseline`` rejects it.
BESPOKE_LOSS_MODELS = frozenset({"BPR-MF", "BERT4Rec", "ContrastVAE"})

#: Table II column order.
BASELINE_NAMES: List[str] = [
    "BPR-MF",
    "GRU4Rec",
    "Caser",
    "SASRec",
    "BERT4Rec",
    "FMLP-Rec",
    "CL4SRec",
    "ContrastVAE",
    "CoSeRec",
    "DuoRec",
    "SLIME4Rec",
]


def build_baseline(
    name: str,
    dataset: SequenceDataset,
    hidden_dim: int = 64,
    num_layers: int = 2,
    seed: int = 0,
    dtype=None,
    **overrides,
):
    """Construct a Table II model wired to ``dataset``'s geometry.

    ``overrides`` are forwarded to the model constructor (SLIME4Rec
    accepts SlimeConfig fields instead).  ``dtype`` selects the compute
    precision of every model uniformly (float32/float64); ``None``
    means float64.  The shared
    prediction-loss knobs (``train_num_negatives``,
    ``negative_sampling`` — see :data:`LOSS_KNOBS`) are accepted for
    every model that trains through ``prediction_loss`` and applied
    through its ``configure_head``, so e.g.
    ``build_baseline("SASRec", ds, train_num_negatives=256)`` trains
    SASRec with the sampled softmax; models with bespoke objectives
    (:data:`BESPOKE_LOSS_MODELS`) reject the knobs instead of silently
    ignoring them.
    """
    knobs: Dict = {k: overrides.pop(k) for k in LOSS_KNOBS if k in overrides}
    # The static-graph opt-in is plumbed like the loss knobs: a
    # SlimeConfig field for SLIME4Rec, a plain post-construction
    # attribute (declared on SequentialEncoderBase) for every baseline.
    static_graph = overrides.pop("static_graph", None)
    # Fail at build time, not at the first training step.
    if knobs and name in BESPOKE_LOSS_MODELS:
        raise ValueError(
            f"{name} trains with a bespoke objective that bypasses "
            f"prediction_loss; the loss knobs {sorted(knobs)} would be a "
            f"silent no-op — remove them or pick a prediction_loss model"
        )
    common: Dict = dict(
        num_items=dataset.num_items,
        max_len=dataset.max_len,
        hidden_dim=hidden_dim,
        seed=seed,
        dtype=dtype,
    )
    if name == "SLIME4Rec":
        config = SlimeConfig(
            num_items=dataset.num_items,
            max_len=dataset.max_len,
            hidden_dim=hidden_dim,
            num_layers=num_layers,
            seed=seed,
            dtype=dtype,
            **overrides,
            **knobs,
            **({} if static_graph is None else {"static_graph": bool(static_graph)}),
        )
        return Slime4Rec(config)
    if name == "BPR-MF":
        model = BPRMF(**common, **overrides)
    elif name == "GRU4Rec":
        model = GRU4Rec(**common, **overrides)
    elif name == "Caser":
        model = Caser(**common, **overrides)
    elif name == "SASRec":
        model = SASRec(**common, num_layers=num_layers, **overrides)
    elif name == "S3Rec":
        # Not part of Table II (the paper lists it as related work only)
        # but available through the registry for extension studies.
        model = S3Rec(**common, num_layers=num_layers, **overrides)
    elif name == "BERT4Rec":
        model = BERT4Rec(**common, num_layers=num_layers, **overrides)
    elif name == "FMLP-Rec":
        model = FMLPRec(**common, num_layers=num_layers, **overrides)
    elif name == "CL4SRec":
        model = CL4SRec(**common, num_layers=num_layers, **overrides)
    elif name == "ContrastVAE":
        model = ContrastVAE(**common, num_layers=num_layers, **overrides)
    elif name == "CoSeRec":
        model = CoSeRec(**common, num_layers=num_layers, **overrides).prepare(dataset)
    elif name == "DuoRec":
        model = DuoRec(**common, num_layers=num_layers, **overrides)
    else:
        raise KeyError(f"unknown model '{name}'; choose from {BASELINE_NAMES}")
    if knobs:
        model.configure_head(**knobs)
    if static_graph is not None:
        model.static_graph = bool(static_graph)
    return model
