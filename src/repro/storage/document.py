"""The storage tier's one document copier.

Storage copies a document only where it crosses its edge: once when it
enters (``Dht.put`` / ``seed``, ``DocumentStore.write`` / ``put_sync``)
and once when it leaves toward code that may mutate it (``Dht.get`` /
``peek``, ``DocumentStore.read*`` / ``query`` / ``get_sync``), so a sync
write costs two copies.  In between, one version object is shared by
resident memory, replicas, the near cache, the write-behind buffer, the
durability tracker and the dict engine — the flush lands the tier's
version (``DocumentStore.land``) and a miss installs the store's
(``DocumentStore.load``) — which is safe because a stored version is
never mutated in place, only replaced.

Documents are JSON-shaped (``dict`` / ``list`` / scalars), which a
direct walk copies several times faster than the general-purpose
``copy.deepcopy``; any other value (a tuple, a set, a user class) still
goes through ``deepcopy``, so it round-trips exactly as it always has.
"""

from __future__ import annotations

import copy
from typing import Any

__all__ = ["copy_doc"]

_SCALARS = frozenset((str, int, float, bool, type(None)))


def copy_doc(value: Any) -> Any:
    """A copy of ``value`` that shares no mutable part with it.

    Exact types only: a ``dict``/``list`` subclass takes the
    ``deepcopy`` path and keeps its type.  JSON has no aliasing or
    cycles, so none is tracked: a value reachable twice is copied twice.
    """
    kind = type(value)
    if kind is dict:
        return {
            key: item if type(item) in _SCALARS else copy_doc(item)
            for key, item in value.items()
        }
    if kind is list:
        return [item if type(item) in _SCALARS else copy_doc(item) for item in value]
    if kind in _SCALARS:
        return value
    return copy.deepcopy(value)
