"""Per-user session state for online serving.

A serving session holds the part of a user's interaction history the
model can actually see — the most recent ``max_len`` item ids (Eq. 1's
window) — plus the cached encoder output for that window.  The design
goals, in order:

1. **O(1) appends.**  A new interaction event must not touch the rest
   of the history: :meth:`UserSession.append` writes one slot of a ring
   buffer and invalidates the cached user vector.  The naive
   alternative (keep the full history list, re-run
   ``pad_or_truncate`` over it per request) is ``O(history)`` per
   event and unbounded in memory.
2. **Encode only when the architecture requires it.**  Every model in
   this repo adds *absolute* positional embeddings to a left-padded
   window, so appending an event shifts every surviving item to a new
   position — the window's last hidden state genuinely depends on all
   ``N`` (shifted) inputs, and an exact event-level incremental encode
   is architecturally impossible (for the spectral and attention models
   doubly so: their mixing layers are global over the sequence axis).
   What *is* avoidable is re-encoding on every request: the encoded
   ``(d,)`` user vector is cached on the session and reused verbatim
   until either a new event arrives or the parameters change
   (:meth:`UserSession.is_fresh`), so read-heavy traffic pays zero
   encodes.  The fallback full re-encode from the raw history is
   pinned equal to this incremental path by ``tests/test_serving.py``.
3. **Bounded memory.**  A session is ~``max_len`` int64 slots plus one
   ``(d,)`` vector; :class:`SessionCache` bounds the number of resident
   sessions with LRU eviction, so the cache never outgrows its budget
   no matter how many distinct users traffic touches.

Thread safety: neither class locks.  The owning
:class:`~repro.serving.service.RecommenderService` serializes all
access under its own lock; standalone users must do the same.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Optional

import numpy as np

__all__ = ["UserSession", "SessionCache"]


class UserSession:
    """Ring-buffered recent-history window + cached encoder state.

    The ring holds the latest ``min(events, max_len)`` item ids;
    :meth:`window` materializes them as the left-padded ``(max_len,)``
    array the model consumes — byte-identical to
    ``repro.data.preprocess.pad_or_truncate(full_history, max_len)``.
    """

    __slots__ = ("user_id", "_buf", "_head", "length", "user_vec", "version", "events")

    def __init__(self, user_id, max_len: int) -> None:
        if max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {max_len}")
        self.user_id = user_id
        self._buf = np.zeros(max_len, dtype=np.int64)
        self._head = 0  # next write slot
        self.length = 0  # filled slots, <= max_len
        #: cached ``(d,)`` user vector for the current window, or None
        self.user_vec: Optional[np.ndarray] = None
        #: parameter-version token ``user_vec`` was encoded under
        self.version: int = -1
        #: lifetime event count (monitoring only; the ring forgets)
        self.events: int = 0

    @property
    def max_len(self) -> int:
        return self._buf.shape[0]

    def append(self, item_id: int) -> None:
        """Record one new interaction event; O(1), invalidates the vector."""
        item_id = int(item_id)
        if item_id < 1:
            raise ValueError(
                f"item ids must be >= 1 (0 is the padding id), got {item_id}"
            )
        self._buf[self._head] = item_id
        self._head = (self._head + 1) % self.max_len
        self.length = min(self.length + 1, self.max_len)
        self.events += 1
        self.user_vec = None

    def extend(self, item_ids: Iterable[int]) -> None:
        for item in item_ids:
            self.append(item)

    def replace_history(self, item_ids: Iterable[int]) -> None:
        """Reset the session to a known history (cold start / backfill)."""
        self._buf[:] = 0
        self._head = 0
        self.length = 0
        self.user_vec = None
        self.extend(item_ids)

    def window(self) -> np.ndarray:
        """The left-padded ``(max_len,)`` model input for this session.

        A fresh array (callers may stack and keep it); O(max_len).
        """
        out = np.zeros(self.max_len, dtype=np.int64)
        if self.length:
            idx = np.arange(self._head - self.length, self._head) % self.max_len
            out[self.max_len - self.length :] = self._buf[idx]
        return out

    def seen(self) -> np.ndarray:
        """Sorted unique item ids currently in the window.

        This is the seen-item mask the service excludes from
        recommendations.  It covers the *window*, not the full lifetime
        history — the ring forgets older events by design (bounded
        memory); callers needing lifetime masking must keep their own
        seen sets.
        """
        if not self.length:
            return np.empty(0, dtype=np.int64)
        idx = np.arange(self._head - self.length, self._head) % self.max_len
        return np.unique(self._buf[idx])

    def is_fresh(self, version: int) -> bool:
        """Whether the cached vector is valid under parameter ``version``."""
        return self.user_vec is not None and self.version == version

    def store_vec(self, vec: np.ndarray, version: int) -> None:
        self.user_vec = vec
        self.version = version

    def __repr__(self) -> str:
        return (
            f"UserSession(user={self.user_id!r}, length={self.length}/"
            f"{self.max_len}, events={self.events}, "
            f"cached={self.user_vec is not None})"
        )


class SessionCache:
    """LRU-bounded mapping of ``user_id -> UserSession``.

    ``capacity=None`` means unbounded (a fixed user population, e.g.
    benchmarks); with a capacity, the least-recently-*used* session is
    dropped on overflow — its ring and cached vector are simply
    recreated from upstream history if that user returns
    (:meth:`get_or_create` + ``replace_history``).
    """

    def __init__(self, max_len: int, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.max_len = int(max_len)
        self.capacity = capacity
        self._sessions: "OrderedDict[object, UserSession]" = OrderedDict()
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, user_id) -> bool:
        return user_id in self._sessions

    def get(self, user_id) -> Optional[UserSession]:
        session = self._sessions.get(user_id)
        if session is not None:
            self._sessions.move_to_end(user_id)
        return session

    def get_or_create(self, user_id) -> UserSession:
        session = self.get(user_id)
        if session is None:
            session = UserSession(user_id, self.max_len)
            self._sessions[user_id] = session
            if self.capacity is not None:
                while len(self._sessions) > self.capacity:
                    self._sessions.popitem(last=False)
                    self.evictions += 1
        return session

    def pop(self, user_id) -> Optional[UserSession]:
        return self._sessions.pop(user_id, None)

    def invalidate_vectors(self) -> None:
        """Drop every cached user vector (after a parameter update)."""
        for session in self._sessions.values():
            session.user_vec = None

    def __repr__(self) -> str:
        return (
            f"SessionCache(sessions={len(self)}, capacity={self.capacity}, "
            f"evictions={self.evictions})"
        )
