"""Discrete-event simulation kernel.

A small, deterministic, generator-based discrete-event engine in the
style of SimPy.  Platform components in the data plane are written as
*processes* (Python generators) that ``yield`` events — timeouts,
resource acquisitions, other processes — and are resumed by the kernel
when those events fire.

The kernel is deliberately minimal:

* :class:`Environment` owns the clock and the event queue.
* :class:`Event` is a one-shot occurrence carrying a value or an error.
* :class:`Timeout` fires after a fixed simulated delay.
* :class:`Process` wraps a generator; it is itself an event that fires
  when the generator returns, so processes can wait on each other.
* :func:`all_of` / :func:`any_of` compose events.

Determinism: events scheduled at the same timestamp fire in FIFO order
of scheduling (stable sequence numbers), so a seeded simulation always
replays identically.
"""

from __future__ import annotations

import heapq
from collections.abc import Generator, Iterable
from time import perf_counter
from typing import Any, Callable

from repro.errors import SimulationError

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "KernelProfile",
    "all_of",
    "any_of",
]

#: Scheduling priority for ordinary events.
NORMAL = 1
#: Scheduling priority that beats NORMAL at the same timestamp (used for
#: resource handoffs so releases are observed before new arrivals).
URGENT = 0

_PENDING = object()


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*; it is *triggered* by :meth:`succeed` or
    :meth:`fail` (which schedules it), and *processed* once the kernel
    has run its callbacks.  Processes wait on events by yielding them.

    Kernel events are slotted: an invocation allocates a dozen of them,
    so none carries a ``__dict__``.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: list[Callable[["Event"], None]] | None = []
        self._value: Any = _PENDING
        self._ok: bool | None = None

    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not have fired yet)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or the exception it failed with)."""
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        A waiting process sees the exception thrown into it at the yield
        point; an un-waited failure is surfaced by :meth:`Environment.run`.
        """
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def _add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            # Already processed: run immediately in a fresh scheduling slot
            # so late listeners still hear about it.
            proxy = Event(self.env)
            proxy.callbacks.append(callback)
            if self._ok:
                proxy.succeed(self._value)
            else:
                proxy._ok = False
                proxy._value = self._value
                self.env._schedule(proxy)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated time units in the future."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        # Event.__init__ and env._schedule, inlined: with Process below,
        # the two constructors every hop of every request runs.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self.delay = delay
        env._seq += 1
        heapq.heappush(env._queue, (env.now + delay, NORMAL, env._seq, self))


class Process(Event):
    """A running generator, resumable by the kernel.

    The process yields events; when an awaited event fires, the kernel
    resumes the generator with the event's value (or throws the event's
    exception into it).  The process itself is an event that fires with
    the generator's return value.

    A process costs two dispatches (its starter and its completion).  A
    caller that would only ``yield`` the new process on the next line —
    nothing else holds it, races it or fans it out — delegates with
    ``yield from generator`` instead (docs/architecture.md, "Hot-path
    rules").
    """

    __slots__ = ("_generator",)

    def __init__(self, env: "Environment", generator: Generator[Any, Any, Any]) -> None:
        if not isinstance(generator, Generator):
            raise SimulationError(
                f"Process requires a generator, got {type(generator).__name__}; "
                "did you forget a 'yield' in the process function?"
            )
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._generator = generator
        # Kick off the generator at the current time.
        starter = Event(env)
        starter._ok = True
        starter._value = None
        starter.callbacks.append(self._resume)
        env._seq += 1
        heapq.heappush(env._queue, (env.now, URGENT, env._seq, starter))

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is _PENDING

    def _resume(self, event: Event) -> None:
        while True:
            try:
                if event._ok:
                    target = self._generator.send(event._value)
                else:
                    target = self._generator.throw(event._value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:  # noqa: BLE001 - propagate via event
                self.fail(exc)
                if not self.callbacks:
                    # Nobody is waiting: surface the crash to run().
                    self.env._crashed.append((self, exc))
                return
            if not isinstance(target, Event):
                exc2 = SimulationError(
                    f"process yielded {target!r}; processes may only yield events"
                )
                self.fail(exc2)
                self.env._crashed.append((self, exc2))
                return
            if target.callbacks is None:
                # Already fired; loop and feed its value straight back in.
                event = target
                continue
            target.callbacks.append(self._resume)
            return


class _Condition(Event):
    """Base for all_of / any_of composition."""

    __slots__ = ("_events", "_pending")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._pending = 0
        for ev in self._events:
            if ev.triggered and not ev.ok:
                self._on_child(ev)
                return
        for ev in self._events:
            if not ev.processed:
                self._pending += 1
                ev._add_callback(self._on_child)
        self._check_start()

    def _check_start(self) -> None:
        raise NotImplementedError

    def _on_child(self, ev: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when every child event has fired; value is a list of values."""

    __slots__ = ()

    def _check_start(self) -> None:
        if self._pending == 0 and not self.triggered:
            self.succeed([ev.value for ev in self._events])

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev._ok:
            self.fail(ev._value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([child.value for child in self._events])


class AnyOf(_Condition):
    """Fires when the first child fires; value is (index, value)."""

    __slots__ = ()

    def _check_start(self) -> None:
        if not self._events:
            raise SimulationError("any_of() requires at least one event")
        for index, ev in enumerate(self._events):
            if ev.processed and not self.triggered:
                self.succeed((index, ev.value))

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev._ok:
            self.fail(ev._value)
            return
        index = self._events.index(ev)
        self.succeed((index, ev.value))


def all_of(env: "Environment", events: Iterable[Event]) -> AllOf:
    """Return an event that fires once all ``events`` have fired."""
    return AllOf(env, events)


def any_of(env: "Environment", events: Iterable[Event]) -> AnyOf:
    """Return an event that fires when the first of ``events`` fires."""
    return AnyOf(env, events)


class KernelProfile:
    """Per-event-type dispatch statistics of one environment.

    Enabled via :meth:`Environment.enable_profiling`; off by default so
    the dispatch loop pays a single ``is None`` branch.  Counts and
    cumulative *wall-clock* callback time are keyed by the event's
    class name — simulated time is never touched, so enabling the
    profiler cannot perturb a seeded run's behaviour.  On, it costs two
    clock reads and two dict updates per event, inside the same loop.
    """

    __slots__ = ("dispatch_count", "dispatch_seconds", "started_at")

    def __init__(self) -> None:
        self.dispatch_count: dict[str, int] = {}
        self.dispatch_seconds: dict[str, float] = {}
        self.started_at = perf_counter()

    @property
    def total_dispatches(self) -> int:
        return sum(self.dispatch_count.values())

    @property
    def total_seconds(self) -> float:
        return sum(self.dispatch_seconds.values())

    def stats(self) -> dict[str, dict[str, float]]:
        """Per-event-type ``{count, seconds}`` rows, sorted by name."""
        return {
            name: {
                "count": self.dispatch_count[name],
                "seconds": self.dispatch_seconds.get(name, 0.0),
            }
            for name in sorted(self.dispatch_count)
        }


class Environment:
    """The simulation clock and event queue.

    Usage::

        env = Environment()

        def worker(env):
            yield env.timeout(1.5)
            return "done"

        proc = env.process(worker(env))
        env.run()
        assert proc.value == "done"
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self.now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._crashed: list[tuple[Process, BaseException]] = []
        #: Dispatch profiler; ``None`` (the default) skips the clock
        #: reads around each event's callbacks.
        self.profile: KernelProfile | None = None

    def enable_profiling(self) -> KernelProfile:
        """Start (or return the existing) per-event-type dispatch profile."""
        if self.profile is None:
            self.profile = KernelProfile()
        return self.profile

    # -- scheduling ------------------------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        self._seq += 1
        heapq.heappush(self._queue, (self.now + delay, priority, self._seq, event))

    # -- factories -------------------------------------------------------

    def event(self) -> Event:
        """Create a pending event to be triggered manually."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Any, Any, Any]) -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator)

    def sleep(self, delay: float) -> Timeout:
        """Alias of :meth:`timeout`, reads better in process code."""
        return self.timeout(delay)

    # -- execution -------------------------------------------------------

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one scheduled event: one turn of the loop
        :meth:`run` runs, for tests and tools that single-step."""
        if not self._queue:
            raise SimulationError("step() on an empty schedule")
        self._dispatch(float("inf"), None, once=True)

    def _dispatch(self, horizon: float, stop: Event | None, once: bool = False) -> None:
        """The one dispatch loop: fire scheduled events in order until
        the horizon, until ``stop`` has fired, or — ``once`` — for a
        single event.  Under a profile it reads the clock around each
        event's callbacks and counts it by type, in place."""
        queue, crashed, pop = self._queue, self._crashed, heapq.heappop
        while (
            queue
            and queue[0][0] <= horizon
            and (stop is None or stop.callbacks is not None)
        ):
            self.now, _prio, _seq, event = pop(queue)
            callbacks, event.callbacks = event.callbacks, None
            profile = self.profile
            if profile is None:
                for callback in callbacks or ():
                    callback(event)
            else:
                started = perf_counter()
                for callback in callbacks or ():
                    callback(event)
                elapsed = perf_counter() - started
                name = type(event).__name__
                try:
                    profile.dispatch_count[name] += 1
                    profile.dispatch_seconds[name] += elapsed
                except KeyError:
                    profile.dispatch_count[name] = 1
                    profile.dispatch_seconds[name] = elapsed
            if crashed:
                self._raise_crashed()
            if once:
                return

    def _raise_crashed(self) -> None:
        process, exc = self._crashed.pop(0)
        self._crashed.clear()
        raise SimulationError(f"unhandled failure in {process!r}: {exc!r}") from exc

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the horizon, an event fires, or the queue drains.

        * ``until=None`` — run until no events remain.
        * ``until=<float>`` — run until simulated time reaches the value.
        * ``until=<Event>`` — run until that event fires and return its
          value (raising its exception if it failed).
        """
        stop: Event | None = None
        horizon = float("inf")
        if isinstance(until, Event):
            stop = until
            if stop.callbacks is not None:
                # Mark the event as watched: a failure of the awaited
                # process is delivered via `raise` below, not treated as
                # an unhandled crash.
                stop.callbacks.append(lambda _ev: None)
        elif until is not None:
            horizon = float(until)
            if horizon < self.now:
                raise SimulationError(
                    f"run(until={horizon}) is in the past (now={self.now})"
                )
        self._dispatch(horizon, stop)
        if stop is not None:
            if stop.callbacks is not None:
                raise SimulationError(
                    "run(until=event) exhausted the schedule before the "
                    "event fired — deadlock?"
                )
            if stop.ok:
                return stop.value
            raise stop.value
        if horizon != float("inf"):
            self.now = horizon
        return None
