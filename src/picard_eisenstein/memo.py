"""Least-recently-used memo of numpy array tuples, bounded by total bytes.

Used where a cached value is a large array table whose size depends on its
key (lattice tables, reduced quadrature grids), so that a count bound alone
would not bound memory.
"""

from __future__ import annotations

import threading
from collections import OrderedDict


class ArrayMemo:
    """Map from hashable keys to tuples of numpy arrays, evicting the least
    recently used entries while the stored arrays exceed cap_bytes in total.
    Stored arrays are made read-only; a value larger than the cap is
    returned to the caller but not stored. Safe to share between threads."""

    def __init__(self, cap_bytes: int):
        self.cap_bytes = cap_bytes
        self.nbytes = 0
        self._items = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key) -> bool:
        return key in self._items

    def get(self, key):
        with self._lock:
            value = self._items.get(key)
            if value is not None:
                self._items.move_to_end(key)
            return value

    def put(self, key, value: tuple) -> tuple:
        for a in value:
            a.flags.writeable = False
        size = sum(a.nbytes for a in value)
        with self._lock:
            if size > self.cap_bytes or key in self._items:
                return value
            self._items[key] = value
            self.nbytes += size
            while self.nbytes > self.cap_bytes:
                _, old = self._items.popitem(last=False)
                self.nbytes -= sum(a.nbytes for a in old)
        return value
