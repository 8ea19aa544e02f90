"""Consistent-hash ring.

Partitions the object key space over the in-memory tier's member nodes
(the paper's "distributed in-memory hash table", §V).  Virtual nodes
smooth the load distribution; replica ownership walks the ring to the
next distinct physical nodes.
"""

from __future__ import annotations

import bisect
import hashlib

from repro.errors import StorageError

__all__ = ["HashRing", "stable_hash"]


def stable_hash(value: str) -> int:
    """The repo's one routing-key hash (first 8 bytes of md5, big-endian):
    ring points, key owners and rendezvous scores all come from here."""
    return int.from_bytes(hashlib.md5(value.encode()).digest()[:8], "big")


class HashRing:
    """Consistent hashing with virtual nodes."""

    def __init__(self, nodes: list[str] | None = None, vnodes: int = 64) -> None:
        if vnodes < 1:
            raise StorageError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        self._points: list[int] = []
        self._owners: dict[int, str] = {}
        self._nodes: set[str] = set()
        #: key -> the distinct nodes met walking clockwise from the
        #: key's point, as far as any caller has asked so far: a key is
        #: hashed and bisected once per membership, not once per
        #: lookup.  The few distinct walks are interned, so an entry
        #: costs one dict slot; the DHT drops entries with its keys.
        self._walks: dict[str, tuple[str, ...]] = {}
        self._interned: dict[tuple[str, ...], tuple[str, ...]] = {}
        for node in nodes or []:
            self.add_node(node)

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(sorted(self._nodes))

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def add_node(self, node: str) -> None:
        """Add a physical node (its virtual points) to the ring."""
        if node in self._nodes:
            raise StorageError(f"node {node!r} already in ring")
        self._nodes.add(node)
        self._walks.clear()
        self._interned.clear()
        for i in range(self.vnodes):
            point = stable_hash(f"{node}#{i}")
            # Collisions across distinct nodes are astronomically rare
            # with 64-bit points; skew one step if it happens.
            while point in self._owners:
                point += 1
            self._owners[point] = node
            bisect.insort(self._points, point)

    def remove_node(self, node: str) -> None:
        """Remove a physical node from the ring."""
        if node not in self._nodes:
            raise StorageError(f"node {node!r} not in ring")
        self._nodes.remove(node)
        self._walks.clear()
        self._interned.clear()
        dropped = [p for p, n in self._owners.items() if n == node]
        for point in dropped:
            del self._owners[point]
        self._points = sorted(self._owners)

    def owner(self, key: str) -> str:
        """The primary owner node of ``key``."""
        return self._walk(key, 1)[0]

    def owners(self, key: str, count: int) -> tuple[str, ...]:
        """Primary plus the next ``count - 1`` distinct replica nodes —
        the interned walk itself whenever it is exactly that long."""
        if count < 1:
            raise StorageError(f"replica count must be >= 1, got {count}")
        return self._walk(key, count)[:count]

    def forget(self, key: str) -> None:
        """Drop ``key``'s memoised walk (its owner no longer holds it)."""
        self._walks.pop(key, None)

    def _walk(self, key: str, count: int) -> tuple[str, ...]:
        """At least the first ``min(count, len(self))`` distinct nodes
        clockwise from ``key``'s point, memoised."""
        walk = self._walks.get(key)
        if walk is not None and len(walk) >= count:
            return walk  # membership changes clear the memo: still current
        if not self._nodes:
            raise StorageError("hash ring is empty")
        count = min(count, len(self._nodes))
        if walk is None or len(walk) < count:
            points = self._points
            index = bisect.bisect_right(points, stable_hash(key))
            found: list[str] = []
            for offset in range(len(points)):
                node = self._owners[points[(index + offset) % len(points)]]
                if node not in found:
                    found.append(node)
                    if len(found) == count:
                        break
            walk = tuple(found)
            walk = self._walks[key] = self._interned.setdefault(walk, walk)
        return walk

    def distribution(self, keys: list[str]) -> dict[str, int]:
        """Histogram of key ownership (diagnostics/tests)."""
        counts = {node: 0 for node in self._nodes}
        for key in keys:
            counts[self.owner(key)] += 1
        return counts
