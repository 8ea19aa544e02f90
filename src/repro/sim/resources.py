"""Queueing primitives for the simulation kernel.

* :class:`Resource` — a pool of identical slots (e.g. request slots of a
  function pod).  FIFO grant order.
* :class:`Container` — a divisible quantity (e.g. node millicores).
* :class:`RateLimiter` — a fluid serial server modelling a throughput
  ceiling (e.g. the document DB's aggregate write capacity).
* :class:`Gate` — a broadcast condition processes can wait on.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.errors import SimulationError
from repro.sim.kernel import Environment, Event, URGENT

__all__ = ["Resource", "Container", "RateLimiter", "Gate"]


class Resource:
    """A pool of ``capacity`` identical slots with FIFO granting.

    Process usage::

        req = resource.request()
        yield req
        try:
            yield env.timeout(service_time)
        finally:
            resource.release()
    """

    def __init__(self, env: Environment, capacity: int) -> None:
        if capacity < 1:
            raise SimulationError(f"Resource capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.in_use = 0
        #: Requests waiting for a slot, oldest first (read-only outside).
        self.waiting: deque[Event] = deque()

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self.waiting)

    def request(self) -> Event:
        """Return an event that fires when a slot is granted."""
        event = Event(self.env)
        if self.in_use < self.capacity:
            self.in_use += 1
            event._ok = True
            event._value = None
            self.env._schedule(event, priority=URGENT)
        else:
            self.waiting.append(event)
        return event

    def release(self) -> None:
        """Return a slot to the pool, waking the oldest waiter.

        After a :meth:`resize` shrink the pool may be over-committed
        (``in_use > capacity``); released slots then retire instead of
        passing to a waiter, so the pool actually drains down to the new
        capacity even while requests are queued.
        """
        if self.in_use <= 0:
            raise SimulationError("release() without a matching request()")
        if self.waiting and self.in_use <= self.capacity:
            event = self.waiting.popleft()
            event._ok = True
            event._value = None
            self.env._schedule(event, priority=URGENT)
        else:
            self.in_use -= 1

    def resize(self, capacity: int) -> None:
        """Change capacity (autoscaling).  Shrinking never evicts holders;
        the pool drains down as slots are released."""
        if capacity < 1:
            raise SimulationError(f"Resource capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        while self.waiting and self.in_use < self.capacity:
            event = self.waiting.popleft()
            self.in_use += 1
            event._ok = True
            event._value = None
            self.env._schedule(event, priority=URGENT)


class Container:
    """A divisible quantity with blocking :meth:`get` and instant :meth:`put`."""

    def __init__(self, env: Environment, capacity: float, initial: float | None = None) -> None:
        if capacity <= 0:
            raise SimulationError(f"Container capacity must be > 0, got {capacity}")
        self.env = env
        self.capacity = float(capacity)
        self.level = float(capacity if initial is None else initial)
        if not 0 <= self.level <= self.capacity:
            raise SimulationError(f"initial level {self.level} outside [0, {capacity}]")
        self._waiting: deque[tuple[float, Event]] = deque()

    def get(self, amount: float) -> Event:
        """Return an event firing once ``amount`` has been withdrawn."""
        if amount < 0:
            raise SimulationError(f"get() amount must be >= 0, got {amount}")
        if amount > self.capacity:
            raise SimulationError(
                f"get({amount}) exceeds container capacity {self.capacity}"
            )
        event = Event(self.env)
        if not self._waiting and amount <= self.level:
            self.level -= amount
            event._ok = True
            event._value = None
            self.env._schedule(event, priority=URGENT)
        else:
            self._waiting.append((amount, event))
        return event

    def put(self, amount: float) -> None:
        """Deposit ``amount`` back, waking FIFO waiters that now fit."""
        if amount < 0:
            raise SimulationError(f"put() amount must be >= 0, got {amount}")
        self.level = min(self.capacity, self.level + amount)
        while self._waiting and self._waiting[0][0] <= self.level:
            need, event = self._waiting.popleft()
            self.level -= need
            event._ok = True
            event._value = None
            self.env._schedule(event, priority=URGENT)


class RateLimiter:
    """A fluid serial server: work is admitted at ``rate`` units/second.

    Models an aggregate throughput ceiling (the paper's document-DB write
    bottleneck).  ``acquire(n)`` returns an event that fires when the
    server has *finished* those ``n`` units; back-to-back acquisitions
    queue behind one another, so sustained offered load above ``rate``
    builds an ever-growing backlog exactly like a saturated DB.
    """

    def __init__(self, env: Environment, rate: float) -> None:
        if rate <= 0:
            raise SimulationError(f"RateLimiter rate must be > 0, got {rate}")
        self.env = env
        self.rate = float(rate)
        self._next_free = 0.0
        self.total_units = 0.0
        self.busy_time = 0.0

    @property
    def backlog_seconds(self) -> float:
        """How far behind the server currently is, in seconds of work."""
        return max(0.0, self._next_free - self.env.now)

    def acquire(self, units: float = 1.0) -> Event:
        """Schedule ``units`` of work; event fires at its completion time."""
        if units < 0:
            raise SimulationError(f"acquire() units must be >= 0, got {units}")
        start = max(self.env.now, self._next_free)
        service = units / self.rate
        self._next_free = start + service
        self.total_units += units
        self.busy_time += service
        event = Event(self.env)
        event._ok = True
        event._value = None
        self.env._schedule(event, delay=self._next_free - self.env.now)
        return event

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` seconds the server was busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)


class Gate:
    """A broadcast condition: many processes wait, one call wakes all."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._waiting: list[Event] = []

    def wait(self) -> Event:
        """Return an event that fires at the next :meth:`fire`."""
        event = Event(self.env)
        self._waiting.append(event)
        return event

    def fire(self, value: Any = None) -> int:
        """Wake every waiter; returns how many were woken."""
        waiters, self._waiting = self._waiting, []
        for event in waiters:
            event._ok = True
            event._value = value
            self.env._schedule(event, priority=URGENT)
        return len(waiters)
