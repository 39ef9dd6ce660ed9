"""R4 true positives behind a second lock: the guard is the lock held
at *every* locked write, not any lock ever held at one."""

import threading


class Refresher:
    def __init__(self):
        self._lock = threading.Lock()
        self._refresh_mutex = threading.Lock()
        self._table = None
        self._failed = None

    def serve(self):
        with self._lock:
            self._table = "rebuilt"  # under _lock alone
            self._failed = None  # TP: refresh() writes under another lock

    def refresh(self):
        with self._refresh_mutex:
            with self._lock:
                self._table = "refreshed"  # under both: the guard stays _lock
            # TP: shares no lock with serve()'s write.
            self._failed = "version"

    def peek(self):
        with self._refresh_mutex:
            # TP: _refresh_mutex does not exclude serve()'s write.
            return self._table

    def table(self):
        with self._lock:
            return self._table  # FP pin: holds the guard
