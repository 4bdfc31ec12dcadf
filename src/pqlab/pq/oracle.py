"""Ground-truth priority queue.

Plain in-memory implementation in (priority, key) order, which is total
because keys are unique among live entries; performs no device traffic.  It
is the reference instrumented queues are replayed against, and the engine of
``make_random_workload``, whose DecreaseKeys need a live queue; no other
generator uses it.

A heap of (priority, key) entries sits beside the live table key ->
priority.  Deletes and decreases leave the old entry in the heap, where it
is stale once the table no longer maps its key to its priority.  A stale
copy equal to the live entry stands in for it, and extracting the key drops
the others.  The image is the live entries in order, as ``entry_words``
lays them out: ``key, priority`` each.
"""

from __future__ import annotations

import heapq

from ..errors import DuplicateKeyError, EmptyQueueError
from .base import PriorityQueueBase, entry_words, word_entries


class OracleQueue(PriorityQueueBase):
    supports_decrease_key = True
    supports_delete = True
    name = "oracle"

    def __init__(self):
        self._live: dict[int, int] = {}  # key -> priority
        self._heap: list[tuple[int, int]] = []  # (priority, key), stale ones included

    def __len__(self) -> int:
        return len(self._live)

    def is_live(self, key: int) -> bool:
        return key in self._live

    def live_items(self) -> list[tuple[int, int]]:
        """Live (key, priority) pairs in extraction order."""
        return sorted(self._live.items(), key=lambda kp: (kp[1], kp[0]))

    def insert(self, key: int, priority: int) -> None:
        if key in self._live:
            raise DuplicateKeyError(f"key {key} is already live")
        self._live[key] = priority
        heapq.heappush(self._heap, (priority, key))

    def decrease_key(self, key: int, priority: int) -> None:
        if key not in self._live:
            raise KeyError(f"DecreaseKey on absent key {key}")
        if priority < self._live[key]:
            self._live[key] = priority
            heapq.heappush(self._heap, (priority, key))

    def delete(self, key: int) -> None:
        self._live.pop(key, None)

    def delete_key(self, key: int) -> None:
        if key not in self._live:
            raise KeyError(f"Delete on absent key {key}")
        del self._live[key]

    def extract_min(self) -> tuple[int, int]:
        heap, live = self._heap, self._live
        while heap:
            priority, key = heapq.heappop(heap)
            if live.get(key) == priority:
                del live[key]
                return key, priority
        raise EmptyQueueError("extract from empty queue")

    def clear(self) -> None:
        self._live.clear()
        self._heap.clear()

    def memory_image(self) -> list[int]:
        return entry_words(sorted((p, k) for k, p in self._live.items()))

    def load_memory_image(self, words: list[int]) -> None:
        # Sorted entries already satisfy the heap invariant.
        self._heap = word_entries(words, 0, len(words) // 2)
        self._live = {k: p for p, k in self._heap}
