"""R4 false-positive pins: disciplined or lock-free classes."""

import threading


class DisciplinedCounter:
    def __init__(self):
        self._lock = threading.Lock()
        self._count = 0

    def increment(self):
        with self._lock:
            self._count += 1

    def peek(self):
        # FP pin: read under the protecting lock.
        with self._lock:
            return self._count

    def wait_nonzero(self):
        cond = threading.Condition(self._lock)
        with self._lock:
            # FP pin: wait_for predicates run inline under the lock, so
            # lambdas keep the held set.
            cond.wait_for(lambda: self._count > 0)
            return self._count


class NestedLocks:
    """Every write holds both locks, so either one excludes the writers."""

    def __init__(self):
        self._outer = threading.Lock()
        self._inner = threading.Lock()
        self._value = 0

    def set(self, value):
        with self._outer:
            with self._inner:
                self._value = value

    def get_outer(self):
        with self._outer:
            return self._value  # FP pin

    def get_inner(self):
        with self._inner:
            return self._value  # FP pin


class LockFreeBag:
    """No locks owned: nothing is protected, nothing is flagged."""

    def __init__(self):
        self.items = []

    def add(self, item):
        self.items.append(item)  # FP pin

    def snapshot(self):
        return list(self.items)  # FP pin
