"""A bounded, thread-safe LRU memo with hit and miss counters.

The package's process-wide memos are instances of :class:`LruMemo`: the
transpile memo of :mod:`repro.qcircuit.transpile` and the compiled-structure
memo of :mod:`repro.solvers.structure`.  Their docstrings say what each one
keys on and holds.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable, NamedTuple, TypeVar

T = TypeVar("T")

_MISSING = object()


class MemoInfo(NamedTuple):
    hits: int
    misses: int
    entries: int


class LruMemo:
    """The last ``capacity`` values built per key, least recently used out first.

    A lock guards lookup and insert.  The build runs outside it, so a slow
    build never blocks lookups of other keys; two threads missing on one
    key both build, the first insert becomes the entry, and both return
    equal values.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self._thread = threading.local()
        self._hits = 0
        self._misses = 0

    def get_or_build(self, key: Hashable, build: Callable[[], T]) -> T:
        """The value kept under ``key``, or ``build()`` kept under it."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is not _MISSING:
                self._entries.move_to_end(key)
                self._hits += 1
                return value
            self._misses += 1
        self._thread.misses = self.thread_misses() + 1
        value = build()
        with self._lock:
            value = self._entries.setdefault(key, value)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return value

    def thread_misses(self) -> int:
        """Misses (builds) the calling thread has made so far."""
        return getattr(self._thread, "misses", 0)

    def info(self) -> MemoInfo:
        with self._lock:
            return MemoInfo(self._hits, self._misses, len(self._entries))

    def clear(self) -> None:
        """Drop every entry and zero the shared counters."""
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0
