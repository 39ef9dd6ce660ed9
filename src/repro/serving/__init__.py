"""Online serving subsystem: ``user history -> top-k`` at low latency.

The production-facing counterpart of the training stack (ROADMAP
"online inference service" item).  Five cooperating pieces:

- :class:`~repro.serving.session.UserSession` /
  :class:`~repro.serving.session.SessionCache` — ring-buffered
  per-user history windows with cached encoder state and LRU bounds;
- :class:`~repro.serving.table.ItemTable` — immutable eval-only
  snapshots of the item-score table (bf16 bits, widened by shift per
  scored block) with staleness detection; the service replaces a
  stale one by building a new snapshot and swapping the reference;
- :mod:`repro.evaluation.topk` — blocked ``argpartition`` top-k shared
  with the evaluation stack;
- :class:`~repro.serving.fallback.PopularityRanker` — the degraded-mode
  answer (popularity top-k, exact seen-item masking) used when the
  model path fails or the service sheds to it under overload;
- :class:`~repro.serving.service.RecommenderService` — the synchronous
  request API tying them together behind a micro-batching collector,
  with per-request deadlines, admission control and collector-failure
  containment (typed errors: :class:`~repro.serving.service.DeadlineExceeded`,
  :class:`~repro.serving.service.Overloaded`).

Entry points: ``python -m repro.serving.cli`` (the ``repro-serve``
command) for replays and ad-hoc queries, optionally restoring a
``repro-train --checkpoint-dir`` store; perfbench's
``serve_mixed_100k`` workload for latency under a 100k-item catalog;
``tests/test_serving.py`` for the fast-vs-reference fidelity pins and
``tests/test_serving_faults.py`` for the chaos matrix pinning the
failure semantics.
"""

from repro.serving.fallback import PopularityRanker
from repro.serving.session import SessionCache, UserSession
from repro.serving.table import ItemTable
from repro.serving.service import (
    DeadlineExceeded,
    Overloaded,
    RecommenderService,
    ServingConfig,
    ServingError,
)

__all__ = [
    "SessionCache",
    "UserSession",
    "ItemTable",
    "PopularityRanker",
    "RecommenderService",
    "ServingConfig",
    "ServingError",
    "DeadlineExceeded",
    "Overloaded",
]
