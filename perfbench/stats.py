"""Statistics shared by the benchmark runner and its steadiness report.

Kept free of numpy and of the program under test so the unit tests in
``perfbench/tests`` run in milliseconds.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 85.0, 80.0, 75.0, 50.0)

#: The percentile every workload reports as ``tail_ms``.  On the
#: reference 2-core host p90 and p95 of wall step and request times
#: moved 16-35% between runs of one build (they track host scheduling
#: hiccups more than the program), while p75 moved 7%, within a third
#: of the 0.25 bound.
TAIL_PCT = 75.0

#: Percentiles every run record lists, to show which ones repeat.
RECORD_PCTS = (50.0, 75.0, 90.0, 95.0, 99.0)

#: A tail percentile must leave at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {pct}")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_beyond(n: int, pct: float) -> float:
    """How many of ``n`` samples lie above the ``pct`` percentile."""
    return n * (100.0 - pct) / 100.0


def tail_percentile(n: int, ladder: Sequence[float] = TAIL_LADDER,
                    min_beyond: int = MIN_BEYOND) -> Optional[float]:
    """Highest ladder percentile with at least ``min_beyond`` samples beyond.

    Returns None when even the lowest rung is unsupported.
    """
    for pct in sorted(ladder, reverse=True):
        if samples_beyond(n, pct) >= min_beyond - 1e-9:
            return pct
    return None


def choose_tail(n: int, declared: float = TAIL_PCT) -> float:
    """The declared tail percentile, or the highest one ``n`` samples
    support when a short run falls below it."""
    if samples_beyond(n, declared) >= MIN_BEYOND - 1e-9:
        return declared
    fallback = tail_percentile(n)
    return 50.0 if fallback is None else min(fallback, declared)


def window_costs(start: float, marks: Iterable[float], window: int) -> List[float]:
    """Cost per event over consecutive windows of ``window`` events.

    ``marks`` are readings of a cumulative clock taken as each event
    completed, in any order; ``start`` is the reading before the first.
    Each whole window gives ``(last reading - reading before it) /
    window``; a partial last window is dropped.
    """
    if window < 1:
        raise ValueError(f"window must be at least 1, got {window}")
    points = [start] + sorted(marks)
    return [
        (points[i + window] - points[i]) / window
        for i in range(0, len(points) - window, window)
    ]


def quartiles(values: Sequence[float]) -> tuple:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    if med == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(med)


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``.

    Negative when ``new`` is better.  ``better`` is ``"lower"`` or
    ``"higher"``, as in ``BENCHMARK.json``.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if base == 0:
        return 0.0 if new == base else math.inf
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def within_bound(base: float, new: float, better: str, bound: float) -> bool:
    """Whether ``new`` is no worse than ``base`` by more than ``bound``."""
    return worse_by(base, new, better) <= bound


def failed_share(attempted: int, failed: int) -> float:
    """Share of attempted operations that failed."""
    if attempted < 0 or failed < 0:
        raise ValueError("attempted and failed must be non-negative")
    if failed > attempted:
        raise ValueError(f"failed ({failed}) exceeds attempted ({attempted})")
    return failed / attempted if attempted else 0.0


def summarize(values: Iterable[float]) -> Dict[str, float]:
    """Median, quartiles and spread of one metric's values."""
    values = [float(v) for v in values]
    q1, med, q3 = quartiles(values)
    return {"n": len(values), "q1": q1, "median": med, "q3": q3,
            "spread": spread(values)}


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def steadiness_rows(runs: List[Dict[str, float]], specs: List[dict]) -> List[dict]:
    """One row per metric: summary of its values across runs plus the
    verdict against the metric's bound (spread below a third of it is
    the target; the bound itself is the limit)."""
    rows = []
    for spec in specs:
        name = spec["name"]
        values = [run[name] for run in runs if name in run]
        if not values:
            continue
        row = {"name": name, "unit": spec["unit"], **summarize(values)}
        bound = spec.get("bound")
        if bound is not None:
            row["bound"] = bound
            row["ok"] = row["spread"] <= bound
            row["steady"] = row["spread"] < bound / 3.0
        rows.append(row)
    return rows
