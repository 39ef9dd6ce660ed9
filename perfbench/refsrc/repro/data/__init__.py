"""Data pipeline: preprocessing, splits, synthetic workloads, batching."""

from repro.data.dataset import SequenceDataset, DatasetStats
from repro.data.preprocess import (
    apply_k_core,
    build_user_sequences,
    leave_one_out_split,
    pad_or_truncate,
)
from repro.data.synthetic import SyntheticConfig, generate_interactions, load_preset, PRESETS
from repro.data.batching import BatchIterator, Batch
from repro.data.augmentation import (
    crop_sequence,
    mask_sequence,
    reorder_sequence,
    substitute_sequence,
    insert_sequence,
    ItemCorrelation,
)
from repro.data.loaders import load_interactions_file
from repro.data.negative_sampling import NegativeSampler
from repro.data.reports import (
    PopularityReport,
    length_histogram,
    popularity_report,
    repeat_ratio,
)

__all__ = [
    "SequenceDataset",
    "DatasetStats",
    "apply_k_core",
    "build_user_sequences",
    "leave_one_out_split",
    "pad_or_truncate",
    "SyntheticConfig",
    "generate_interactions",
    "load_preset",
    "PRESETS",
    "BatchIterator",
    "Batch",
    "crop_sequence",
    "mask_sequence",
    "reorder_sequence",
    "substitute_sequence",
    "insert_sequence",
    "ItemCorrelation",
    "load_interactions_file",
    "NegativeSampler",
    "PopularityReport",
    "popularity_report",
    "length_histogram",
    "repeat_ratio",
]
