"""A bounded, thread-safe LRU memo.

The one pattern behind the process-wide memos that make repeated work
cost a probe: the build's source scan, interface parsing,
referenced-name sets and linked modules, and the residual-cache
decode.  Each memo has a fixed capacity (least recently used entries
are evicted first) and one lock, held only for dictionary operations —
the expensive work a memo saves always runs outside it, so two threads
may both compute a missing value; the second ``put`` simply wins.
"""

import threading
from collections import OrderedDict

__all__ = ["LruMemo"]


class LruMemo:
    """``key -> value`` with at most ``capacity`` entries."""

    def __init__(self, capacity):
        self.capacity = capacity
        self._entries = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self):
        with self._lock:  # never observe a put between insert and evict
            return len(self._entries)

    def get(self, key):
        """The value memoised for ``key`` (now most recently used), or
        ``None``."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def put(self, key, value):
        """Memoise ``value`` (never ``None``) under ``key``, evicting the
        least recently used entries beyond the capacity."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def pop(self, key):
        """Forget ``key`` if it is memoised."""
        with self._lock:
            self._entries.pop(key, None)

    def discard_where(self, predicate):
        """Drop the first entry whose value satisfies ``predicate``;
        returns whether one was dropped."""
        with self._lock:
            for key, value in self._entries.items():
                if predicate(value):
                    del self._entries[key]
                    return True
        return False

    def clear(self):
        with self._lock:
            self._entries.clear()
