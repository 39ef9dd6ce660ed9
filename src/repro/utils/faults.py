"""Deterministic fault injection for crash/resume testing.

A fault-tolerant trainer is only trustworthy if its failure paths are
exercised, and real crashes are neither deterministic nor CI-friendly.
This module gives the training runtime named **trip points** — places
where a process can realistically die or an I/O call can realistically
fail — and lets tests schedule exactly one deterministic fault at one
of them:

- ``trainer.step`` — tripped after each completed optimizer step, with
  the global step index;
- ``trainer.epoch`` — tripped at each epoch boundary (after validation
  and checkpointing), with the epoch index;
- ``checkpoint.pre_save`` — before any checkpoint bytes are written;
- ``checkpoint.write`` — inside the temp-file write, before the
  durable publish (the torn-write window);
- ``checkpoint.post_save`` — after the atomic publish and manifest
  update but *before* rotation pruning;
- ``checkpoint.end`` — after rotation completes.

The serving runtime (:mod:`repro.serving`) embeds its own trip points
in the online request path, so its chaos tests kill/delay the exact
code a production incident would hit:

- ``serve.encode`` — before the stacked ``encode_users`` walk of a
  micro-batch (the model forward);
- ``serve.score`` — before the blocked scoring/top-k pass of a batch;
- ``serve.collect`` — in the collector thread, after a batch is
  drained from the queue but before it is served (an exception here is
  the "collector thread dies" scenario);
- ``serve.refresh`` — before a new item-table snapshot is built (the
  stale-batch build under the serving lock and the double-buffered
  ``refresh_table``; a fault here never marks the parameter version
  failed, so the next stale batch builds again).

Production code calls :func:`trip` unconditionally; with no injector
installed it is a few-nanosecond no-op, so the hooks stay in the real
code paths rather than in test-only shims — what the tests kill is the
exact code a production crash would interrupt.

Three fault actions are supported.  A **crash** raises
:class:`InjectedCrash`, which derives from ``BaseException`` so no
``except Exception`` recovery path in the runtime can accidentally
swallow the "process died here" signal.  An **I/O error** raises
:class:`InjectedIOError` (an ``OSError``), which exercises the
runtime's real error handling — e.g. a failed write must leave the
previous checkpoints intact.  A **delay** (:meth:`FaultInjector.delay_at`)
sleeps at the trip point instead of raising — the latency-injection
arm of the serving chaos harness: a stalled encode must surface as
deadline timeouts and shed load, never as unbounded caller waits.

Trip points may be hit from several serving threads concurrently, so
the injector's matching/bookkeeping is lock-protected; a delay sleeps
*outside* the lock so it stalls only the tripping thread.

Typical test::

    injector = FaultInjector().crash_at("trainer.step", at=17)
    with inject(injector):
        with pytest.raises(InjectedCrash):
            trainer.fit()
    # ... rebuild model/trainer, fit(resume_from=...), compare.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

__all__ = [
    "InjectedCrash",
    "InjectedIOError",
    "FaultInjector",
    "inject",
    "trip",
    "active_injector",
]


class InjectedCrash(BaseException):
    """A scheduled process-death stand-in.

    Derives from ``BaseException`` (like ``KeyboardInterrupt``) so that
    recovery code catching ``Exception`` cannot swallow it — a real
    ``kill -9`` would not be catchable at all.
    """

    def __init__(self, point: str, index: int) -> None:
        super().__init__(f"injected crash at {point}[{index}]")
        self.point = point
        self.index = index


class InjectedIOError(OSError):
    """A scheduled I/O failure (disk full, yanked volume, EIO)."""


@dataclass
class _FaultSpec:
    point: str
    at: Optional[int]
    action: str  # "crash" | "io_error" | "delay"
    remaining: int = 1
    seconds: float = 0.0


@dataclass
class FaultInjector:
    """A schedule of deterministic faults, matched at trip points.

    Each scheduled fault fires ``times`` times (default once, so a test
    can resume past the fault it injected without re-arming it).  ``at``
    matches the index the runtime passes to :func:`trip` — the global
    step for ``trainer.step``, the epoch for ``trainer.epoch``, the
    checkpoint step for ``checkpoint.*`` points; ``at=None`` fires on
    the first ``times`` trips of that point.  ``counts`` and ``fired``
    record what actually happened, for assertions.  Matching and
    bookkeeping are lock-protected (serving trips arrive from several
    threads); a delay sleeps outside the lock.
    """

    _specs: List[_FaultSpec] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    fired: List[Tuple[str, int]] = field(default_factory=list)
    _mutex: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def crash_at(
        self, point: str, at: Optional[int] = None, times: int = 1
    ) -> "FaultInjector":
        """Schedule an :class:`InjectedCrash` at ``point`` (chainable)."""
        self._specs.append(_FaultSpec(point, at, "crash", remaining=times))
        return self

    def io_error_at(
        self, point: str, at: Optional[int] = None, times: int = 1
    ) -> "FaultInjector":
        """Schedule an :class:`InjectedIOError` at ``point`` (chainable)."""
        self._specs.append(_FaultSpec(point, at, "io_error", remaining=times))
        return self

    def delay_at(
        self, point: str, seconds: float, at: Optional[int] = None, times: int = 1
    ) -> "FaultInjector":
        """Schedule a ``seconds``-long stall at ``point`` (chainable).

        Unlike the raising actions, a delay lets execution continue —
        it models a slow disk, a GC pause or a contended core, the
        latency half of the serving chaos matrix.
        """
        if seconds < 0:
            raise ValueError(f"delay seconds must be >= 0, got {seconds}")
        self._specs.append(
            _FaultSpec(point, at, "delay", remaining=times, seconds=float(seconds))
        )
        return self

    def trip(self, point: str, index: Optional[int] = None) -> None:
        """Record a trip and act if a scheduled fault matches it."""
        matched: Optional[_FaultSpec] = None
        with self._mutex:
            self.counts[point] += 1
            effective = self.counts[point] - 1 if index is None else int(index)
            for spec in self._specs:
                if spec.point != point or spec.remaining <= 0:
                    continue
                if spec.at is not None and spec.at != effective:
                    continue
                spec.remaining -= 1
                self.fired.append((point, effective))
                matched = spec
                break
        if matched is None:
            return
        if matched.action == "crash":
            raise InjectedCrash(point, effective)
        if matched.action == "io_error":
            raise InjectedIOError(f"injected I/O error at {point}[{effective}]")
        time.sleep(matched.seconds)


#: The installed injector; ``None`` (the default) makes every
#: :func:`trip` a no-op.  Installed/removed by :func:`inject`.
_ACTIVE: Optional[FaultInjector] = None


def active_injector() -> Optional[FaultInjector]:
    """The currently installed :class:`FaultInjector`, if any."""
    return _ACTIVE


def trip(point: str, index: Optional[int] = None) -> None:
    """Trip point hook for runtime code; no-op unless an injector is installed."""
    if _ACTIVE is not None:
        _ACTIVE.trip(point, index)


@contextlib.contextmanager
def inject(injector: FaultInjector):
    """Install ``injector`` for the duration of the ``with`` block."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = injector
    try:
        yield injector
    finally:
        _ACTIVE = previous
