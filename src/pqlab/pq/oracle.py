"""Ground-truth priority queue.

Plain in-memory implementation with the global (priority, key, timestamp)
tie-break; performs no device traffic.  It is the reference instrumented
queues are replayed against, and the engine of ``make_random_workload``,
whose DecreaseKeys need a live queue; no other generator uses it.
"""

from __future__ import annotations

import heapq

from ..errors import DuplicateKeyError, EmptyQueueError
from .base import PriorityQueueBase


class OracleQueue(PriorityQueueBase):
    supports_decrease_key = True
    supports_delete = True
    name = "oracle"

    def __init__(self):
        self._live: dict[int, tuple[int, int]] = {}  # key -> (priority, timestamp)
        self._heap: list[tuple[int, int, int]] = []  # (priority, key, timestamp)
        self._clock = 0

    def __len__(self) -> int:
        return len(self._live)

    def is_live(self, key: int) -> bool:
        return key in self._live

    def live_items(self) -> list[tuple[int, int]]:
        """Live (key, priority) pairs in extraction order."""
        return sorted(((k, p) for k, (p, _) in self._live.items()), key=lambda kp: (kp[1], kp[0]))

    def insert(self, key: int, priority: int) -> None:
        if key in self._live:
            raise DuplicateKeyError(f"key {key} is already live")
        self._clock += 1
        self._live[key] = (priority, self._clock)
        heapq.heappush(self._heap, (priority, key, self._clock))

    def decrease_key(self, key: int, priority: int) -> None:
        if key not in self._live:
            raise KeyError(f"DecreaseKey on absent key {key}")
        old_p, ts = self._live[key]
        if priority < old_p:
            self._live[key] = (priority, ts)
            heapq.heappush(self._heap, (priority, key, ts))

    def delete(self, key: int) -> None:
        self._live.pop(key, None)

    def delete_key(self, key: int) -> None:
        if key not in self._live:
            raise KeyError(f"Delete on absent key {key}")
        del self._live[key]

    def extract_min(self) -> tuple[int, int]:
        self._settle()
        priority, key, _ = heapq.heappop(self._heap)
        del self._live[key]
        return key, priority

    def _settle(self) -> None:
        # Drop heap entries invalidated by deletes and decreases.
        heap = self._heap
        live = self._live
        while heap:
            priority, key, ts = heap[0]
            cur = live.get(key)
            if cur is not None and cur == (priority, ts):
                return
            heapq.heappop(heap)
        raise EmptyQueueError("extract from empty queue")

    def clear(self) -> None:
        self._live.clear()
        self._heap.clear()

    def memory_image(self) -> list[int]:
        """``[clock]``, then the live entries in order, each as ``key, priority, timestamp``."""
        words = [self._clock]
        for p, k, ts in sorted((p, k, ts) for k, (p, ts) in self._live.items()):
            words += (k, p, ts)
        return words

    def load_memory_image(self, words: list[int]) -> None:
        self._clock = words[0]
        # Sorted entries already satisfy the heap invariant.
        self._heap = list(zip(words[2::3], words[1::3], words[3::3]))
        self._live = {k: (p, ts) for p, k, ts in self._heap}
