"""Addressable max-heap with ``decrease_weight_by`` (Algorithm 2's queue).

The centralized greedy algorithm of the paper (Alg. 2) repeatedly pops the
point with the highest marginal gain and *decreases* the priority of its
graph neighbors.  A binary heap with lazy invalidation supports this pattern
in ``O(log n)`` amortized per operation: every priority update pushes a fresh
entry and the stale one is discarded when popped.

A pure-Python reference implementation is deliberate (see the ml-systems
guide): the heap is only used on per-partition data that fits in memory, and
the lazy-invalidation variant profiles faster than an indexed sift-based heap
for the update-heavy workload of Algorithm 2.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator, Optional, Tuple


class AddressableMaxHeap:
    """Max-heap over integer keys with updatable priorities.

    Supports the three operations Algorithm 2 needs:

    - ``push(key, priority)`` — insert (or overwrite) an entry,
    - ``decrease_weight_by(key, delta)`` — lower a key's priority,
    - ``popmax()`` — remove and return the (key, priority) with the largest
      priority.

    Ties are broken by key (smaller key wins) so results are deterministic.
    """

    __slots__ = ("_heap", "_priority", "_popped")

    def __init__(self, items: Optional[Iterable[Tuple[int, float]]] = None) -> None:
        self._heap: list = []
        self._priority: dict = {}
        self._popped: set = set()
        if items is not None:
            for key, priority in items:
                key, priority = int(key), float(priority)
                self._priority[key] = priority
                self._heap.append((-priority, key))
            heapq.heapify(self._heap)

    def __len__(self) -> int:
        return len(self._priority)

    def __contains__(self, key: int) -> bool:
        return key in self._priority

    def __bool__(self) -> bool:
        return bool(self._priority)

    def priority(self, key: int) -> float:
        """Current priority of ``key``; raises ``KeyError`` if absent."""
        return self._priority[key]

    def push(self, key: int, priority: float) -> None:
        """Insert ``key`` (or reset its priority if already present)."""
        key = int(key)
        if key in self._popped:
            self._popped.discard(key)
        self._priority[key] = float(priority)
        heapq.heappush(self._heap, (-float(priority), key))

    def decrease_weight_by(self, key: int, delta: float) -> None:
        """Lower ``key``'s priority by ``delta`` (must be non-negative).

        Mirrors the ``decrease_weight_by`` call in Alg. 2 line 6.
        """
        if delta < 0:
            raise ValueError(f"delta must be >= 0, got {delta}")
        key = int(key)
        new = self._priority[key] - float(delta)
        self._priority[key] = new
        heapq.heappush(self._heap, (-new, key))

    def popmax(self) -> Tuple[int, float]:
        """Pop and return ``(key, priority)`` with maximal priority."""
        while self._heap:
            neg, key = heapq.heappop(self._heap)
            current = self._priority.get(key)
            if current is None:
                continue  # entry for an already-popped key
            if -neg != current:
                continue  # stale entry superseded by a decrease
            del self._priority[key]
            self._popped.add(key)
            return key, current
        raise IndexError("popmax from an empty heap")

    def peekmax(self) -> Tuple[int, float]:
        """Return (but do not remove) the max entry."""
        while self._heap:
            neg, key = self._heap[0]
            current = self._priority.get(key)
            if current is None or -neg != current:
                heapq.heappop(self._heap)
                continue
            return key, current
        raise IndexError("peekmax from an empty heap")

    def discard(self, key: int) -> bool:
        """Remove ``key`` if present; return whether it was present."""
        if key in self._priority:
            del self._priority[key]
            self._popped.add(key)
            return True
        return False

    def items(self) -> Iterator[Tuple[int, float]]:
        """Iterate over live ``(key, priority)`` pairs (arbitrary order)."""
        return iter(self._priority.items())
