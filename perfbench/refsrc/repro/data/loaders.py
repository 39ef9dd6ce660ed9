"""Loaders for real interaction dumps.

If a user of this library has the actual Amazon/ML-1M/Yelp dumps, the
standard whitespace- or comma-separated ``user item timestamp`` format
(one interaction per line) can be loaded here and fed straight into
:class:`~repro.data.dataset.SequenceDataset`, replacing the synthetic
presets without touching any other code.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Tuple

__all__ = ["load_interactions_file"]


def load_interactions_file(path: str | Path, delimiter: str | None = None) -> List[Tuple[int, int, float]]:
    """Parse ``user item [timestamp]`` lines into interaction triples.

    Lines starting with ``#`` and blank lines are skipped.  When the
    timestamp column is absent, the line number is used so input order
    defines chronology.  User and item ids may be arbitrary integers;
    remapping happens downstream in ``build_user_sequences``.
    """
    path = Path(path)
    interactions: List[Tuple[int, int, float]] = []
    with open(path) as handle:
        for lineno, line in enumerate(handle):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(delimiter) if delimiter else line.split()
            if len(parts) < 2:
                raise ValueError(f"{path}:{lineno + 1}: expected 'user item [ts]', got {line!r}")
            user, item = int(parts[0]), int(parts[1])
            ts = float(parts[2]) if len(parts) > 2 else float(lineno)
            interactions.append((user, item, ts))
    if not interactions:
        raise ValueError(f"{path}: no interactions found")
    return interactions
