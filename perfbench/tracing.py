"""In-memory span tracer driven from outside the program.

The benchmark records spans around the public callables it invokes and
around methods of the program's classes that it wraps for the traced
run only (:meth:`Tracer.wrap`).  A span is ``(name, start, end, parent,
ident, count, thread)``: ``parent`` indexes the enclosing span in the
same thread, ``ident`` is the step or request the span belongs to
(inherited from the parent when not given) and ``count`` is an optional
work count (rows encoded, users scored).  Spans stay in memory and are
written out once, when the run ends.

A layer's self time is its span minus the time its child spans cover.
Children are nested calls in the same thread, so they never overlap.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional


class Tracer:
    """Collects spans; ``enabled=False`` makes every span a no-op."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        #: rows of [name, start, end, parent, ident, count, thread]
        self.spans: List[list] = []
        self._local = threading.local()
        self._patched: List[tuple] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, ident=None, count: Optional[int] = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if ident is None and parent >= 0:
            ident = self.spans[parent][4]
        row = [name, time.perf_counter(), None, parent, ident, count,
               threading.get_ident()]
        self.spans.append(row)  # list.append is atomic under the GIL
        index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def span(self, name: str, ident=None, count: Optional[int] = None):
        return _Span(self, name, ident, count) if self.enabled else _NULL_SPAN

    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str,
             count: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``owner`` is a class (every instance is traced) or an instance.
        ``count(*args)`` optionally derives the span's work count from
        the call's positional arguments (``self`` excluded for methods).
        :meth:`unwrap_all` restores the originals.
        """
        if not self.enabled:
            return
        original = owner.__dict__.get(attr) if isinstance(owner, type) else None
        target = getattr(owner, attr)
        tracer = self

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            n = None
            if count is not None:
                n = count(*(args[1:] if isinstance(owner, type) else args))
            index = tracer.begin(name, count=n)
            try:
                return target(*args, **kwargs)
            finally:
                tracer.end(index)

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._patched):
            if original is not None:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patched.clear()

    # ------------------------------------------------------------------
    def self_times(self) -> List[float]:
        """Self time of every span in seconds (unfinished spans: 0)."""
        covered = [0.0] * len(self.spans)
        for row in self.spans:
            parent = row[3]
            if parent >= 0 and row[2] is not None:
                covered[parent] += row[2] - row[1]
        return [
            (row[2] - row[1] - covered[i]) if row[2] is not None else 0.0
            for i, row in enumerate(self.spans)
        ]

    def totals_by_ident(self, names, use_self: bool = True) -> Dict[str, Dict]:
        """``{name: {ident: seconds}}`` summed over each ident's spans."""
        selfs = self.self_times() if use_self else None
        wanted = set(names)
        out: Dict[str, Dict] = {name: defaultdict(float) for name in wanted}
        for i, row in enumerate(self.spans):
            if row[0] in wanted and row[2] is not None and row[4] is not None:
                out[row[0]][row[4]] += selfs[i] if use_self else row[2] - row[1]
        return out

    def dump(self, path: Path) -> None:
        """Write the spans out as JSON lines (one span per line)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "id", "count", "thread")
        with path.open("w", encoding="utf-8") as fh:
            for row in self.spans:
                record = dict(zip(keys, row))
                if record["id"] is not None and not isinstance(record["id"], (int, str)):
                    record["id"] = str(record["id"])
                fh.write(json.dumps(record) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "ident", "count", "index")

    def __init__(self, tracer: Tracer, name: str, ident, count) -> None:
        self.tracer, self.name, self.ident, self.count = tracer, name, ident, count

    def __enter__(self):
        self.index = self.tracer.begin(self.name, self.ident, self.count)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.end(self.index)


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()
