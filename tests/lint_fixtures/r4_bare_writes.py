"""R4 true positives with no locked write: a counter bumped bare and
snapshotted under the lock loses concurrent updates."""

import threading


class Tally:
    def __init__(self):
        self._lock = threading.Lock()
        self._hits = 0
        self._errors = 0
        self._limit = 8  # FP pin: only __init__ writes it
        self._scratch = 0

    def bump(self):
        self._hits += 1  # TP: stats() reads it under _lock

    def bump_many(self, n):
        self._hits += n  # TP

    def serve(self):
        try:
            return self._limit
        except ValueError:
            self._errors += 1  # TP

    def stats(self):
        with self._lock:
            return {"hits": self._hits, "errors": self._errors, "limit": self._limit}

    def scribble(self):
        # FP pin: written and read bare only; no lock claims it.
        self._scratch += 1
        return self._scratch
