"""Baseline recommenders reproduced on the same substrate (Table II).

Every baseline follows the common interface of
:class:`~repro.core.encoder.SequentialEncoderBase` so the trainer,
evaluator and benchmark harness treat all models uniformly.
"""

from repro.baselines.transformer import TransformerBlock, TransformerEncoder
from repro.baselines.bprmf import BPRMF
from repro.baselines.gru4rec import GRU4Rec
from repro.baselines.caser import Caser
from repro.baselines.sasrec import SASRec
from repro.baselines.bert4rec import BERT4Rec
from repro.baselines.fmlprec import FMLPRec
from repro.baselines.cl4srec import CL4SRec
from repro.baselines.coserec import CoSeRec
from repro.baselines.duorec import DuoRec
from repro.baselines.contrastvae import ContrastVAE
from repro.baselines.s3rec import S3Rec
from repro.baselines.registry import build_baseline, BASELINE_NAMES

__all__ = [
    "TransformerBlock",
    "TransformerEncoder",
    "BPRMF",
    "GRU4Rec",
    "Caser",
    "SASRec",
    "BERT4Rec",
    "FMLPRec",
    "CL4SRec",
    "CoSeRec",
    "DuoRec",
    "ContrastVAE",
    "S3Rec",
    "build_baseline",
    "BASELINE_NAMES",
]
