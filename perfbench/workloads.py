"""Workload registry and the metric declarations of ``BENCHMARK.json``."""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def benchmark() -> dict:
    """The parsed ``BENCHMARK.json`` at the checkout root."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def module(name: str):
    """The module (``training`` or ``serving``) that runs workload ``name``,
    or None."""
    from perfbench import serving, training

    for candidate in (training, serving):
        if name in candidate.SPECS:
            return candidate
    return None
