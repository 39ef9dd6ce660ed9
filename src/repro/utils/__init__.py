"""Cross-cutting utilities: checkpoint I/O, fault injection, reporting helpers."""

from repro.utils.io import (
    CheckpointCorruptError,
    CheckpointStore,
    atomic_savez,
    atomic_write_text,
    load_results,
    save_results,
)
from repro.utils.reporting import format_metric_table, format_run_header

__all__ = [
    "save_results",
    "load_results",
    "atomic_savez",
    "atomic_write_text",
    "CheckpointStore",
    "CheckpointCorruptError",
    "format_metric_table",
    "format_run_header",
]
