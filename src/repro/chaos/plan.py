"""Typed, declarative fault plans.

A :class:`FaultPlan` is a named, ordered collection of fault profiles —
each a frozen dataclass naming *what* breaks, *when* (simulated
seconds), and *for how long*.  Plans are pure data: the same plan
injected into the same seeded platform produces byte-identical event
logs, which is what makes chaos testing regressible (the determinism
suite replays plans and diffs the logs).

Profiles mirror the failure modes a real OaaS deployment sees:

=======================  ==================================================
profile                  models
=======================  ==================================================
:class:`NodeCrash`       a worker VM dying (optionally restarting later)
:class:`Partition`       a network partition isolating a set of nodes
:class:`NetworkDelay`    degraded links (added latency on a path)
:class:`SlowPods`        saturated/overheating hosts running pods slowly
:class:`StorageFaults`   the document store failing a fraction of writes
:class:`ColdStartStorm`  every pod of a class evicted at once
:class:`WorkerCrash`     a scheduler-plane worker dying mid-run [s]
:class:`HeartbeatLoss`   a worker going silent while still executing [s]
:class:`SlowWorker`      one worker's dispatch overhead multiplied [s]
:class:`ZonePartition`   a whole zone cut off from the federation [f]
:class:`WanDegradation`  a degraded WAN link between two zones [f]
=======================  ==================================================

Profiles marked ``[s]`` target the scheduler plane and require
``PlatformConfig(scheduler=SchedulerConfig(enabled=True))``; profiles
marked ``[f]`` target the federation plane and require
``PlatformConfig(federation=FederationConfig(enabled=True))``.
Injecting either into a baseline platform raises
:class:`SimulationError`.

Partitions and delays are handles, so overlapping ones stack and each
recover releases only its own.  The other seams hold one value — a
node's membership, the store's write-fault rate, one worker's knob, a
service's slowdown — so a plan holding two faults on one of them at
once (see :attr:`Fault.target`) is rejected with a
:class:`ValidationError` naming both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Any, ClassVar

from repro.errors import ValidationError

__all__ = [
    "Fault",
    "NodeCrash",
    "Partition",
    "NetworkDelay",
    "SlowPods",
    "StorageFaults",
    "ColdStartStorm",
    "WorkerCrash",
    "HeartbeatLoss",
    "SlowWorker",
    "ZonePartition",
    "WanDegradation",
    "FaultPlan",
]


@dataclass(frozen=True, kw_only=True)
class Fault:
    """Base fault profile: a typed event on the chaos timeline.

    Attributes:
        at: injection time in simulated seconds from plan start.
        duration_s: how long the fault holds before the injector reverts
            it.  ``0`` means the fault has no revert action (it is
            instantaneous, like :class:`ColdStartStorm`, or permanent,
            like a :class:`NodeCrash` without a restart).
    """

    #: The fields naming the single-valued seam a fault of this kind
    #: holds (``None`` in a field matches anything), or ``None`` when
    #: faults of the kind stack.
    target: ClassVar[tuple[str, ...] | None] = None

    at: float = 0.0
    duration_s: float = 0.0

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValidationError(f"fault time must be >= 0, got {self.at}")
        if self.duration_s < 0:
            raise ValidationError(
                f"fault duration must be >= 0, got {self.duration_s}"
            )

    @property
    def kind(self) -> str:
        return type(self).__name__

    @property
    def held_until(self) -> float:
        """When the fault is reverted; a permanent one holds forever."""
        return self.at + self.duration_s if self.duration_s else math.inf

    def describe(self) -> dict[str, Any]:
        """Kind, time, duration when non-zero, then the kind's own
        fields in declaration order (tuples as lists)."""
        out: dict[str, Any] = {"kind": self.kind, "at": self.at}
        if self.duration_s:
            out["duration_s"] = self.duration_s
        for spec in fields(self):
            if spec.name not in ("at", "duration_s"):
                value = getattr(self, spec.name)
                out[spec.name] = list(value) if isinstance(value, tuple) else value
        return out

    def collides(self, other: Fault) -> bool:
        """Whether ``self`` and ``other`` hold one single-valued seam at
        the same time, so that the first to recover would undo both."""
        if type(other) is not type(self) or self.target is None:
            return False
        if not (self.at < other.held_until and other.at < self.held_until):
            return False
        return all(
            getattr(self, name) is None
            or getattr(other, name) is None
            or getattr(self, name) == getattr(other, name)
            for name in self.target
        )


@dataclass(frozen=True, kw_only=True)
class NodeCrash(Fault):
    """A worker VM crashes; pods die and its DHT partitions fail over.

    With ``duration_s > 0`` the node rejoins (empty, like a fresh VM)
    after the outage and eligible class runtimes rebalance onto it.
    """

    target: ClassVar[tuple[str, ...]] = ("node",)

    node: str

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.node:
            raise ValidationError("NodeCrash requires a node name")


@dataclass(frozen=True, kw_only=True)
class Partition(Fault):
    """A network partition isolating ``nodes`` from the rest (and from
    the gateway side).  Healing releases this partition's cut (others
    hold) and runs DHT anti-entropy so replicas reconverge."""

    nodes: tuple[str, ...]

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if not self.nodes:
            raise ValidationError("Partition requires at least one node")
        if self.duration_s <= 0:
            raise ValidationError("Partition requires duration_s > 0")


@dataclass(frozen=True, kw_only=True)
class NetworkDelay(Fault):
    """Extra one-way latency on a path (``None`` endpoint = any)."""

    extra_s: float
    src: str | None = None
    dst: str | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.extra_s <= 0:
            raise ValidationError(f"extra_s must be > 0, got {self.extra_s}")
        if self.duration_s <= 0:
            raise ValidationError("NetworkDelay requires duration_s > 0")


@dataclass(frozen=True, kw_only=True)
class SlowPods(Fault):
    """Pods execute ``factor`` times slower — service-wide, or scoped to
    one class and/or one node (a saturated host).  A service-wide
    recover also clears node-scoped slowdowns, so a ``None`` scope
    overlaps every other scope."""

    target: ClassVar[tuple[str, ...]] = ("cls", "node")

    factor: float
    cls: str | None = None
    node: str | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.factor <= 1.0:
            raise ValidationError(f"slowdown factor must be > 1, got {self.factor}")
        if self.duration_s <= 0:
            raise ValidationError("SlowPods requires duration_s > 0")


@dataclass(frozen=True, kw_only=True)
class StorageFaults(Fault):
    """The document store fails a fraction of write batches.

    Draws come from the platform's seeded ``"chaos.storage"`` stream, so
    which writes fail is deterministic per seed.  The store has one
    write-fault rate, so two of these never overlap.
    """

    target: ClassVar[tuple[str, ...]] = ()

    error_rate: float

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.error_rate <= 1.0:
            raise ValidationError(
                f"error_rate must be in (0, 1], got {self.error_rate}"
            )
        if self.duration_s <= 0:
            raise ValidationError("StorageFaults requires duration_s > 0")


@dataclass(frozen=True, kw_only=True)
class ColdStartStorm(Fault):
    """Every pod of the named classes (all classes when empty) is
    evicted at once — the next requests all pay cold starts."""

    classes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "classes", tuple(self.classes))
        if self.duration_s:
            raise ValidationError(
                "ColdStartStorm is instantaneous; duration_s must be 0"
            )


@dataclass(frozen=True, kw_only=True)
class WorkerCrash(Fault):
    """A scheduler-plane worker dies mid-run: its epoch is fenced and
    everything it held (queued + in-flight) is requeued elsewhere.

    With ``duration_s > 0`` a fresh registration under the same name
    rejoins after the outage (a restarted worker process); with ``0``
    the crash is permanent (pool replacement policy decides what
    happens next).
    """

    target: ClassVar[tuple[str, ...]] = ("worker",)

    worker: str

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.worker:
            raise ValidationError("WorkerCrash requires a worker name")


@dataclass(frozen=True, kw_only=True)
class HeartbeatLoss(Fault):
    """A worker's heartbeats stop reaching the scheduler while the
    worker keeps executing — the zombie case.  The scheduler degrades
    it, rebinds its queue, and (if silence outlasts the dead threshold)
    fences its epoch; results from the fenced registration are
    suppressed, never double-delivered."""

    target: ClassVar[tuple[str, ...]] = ("worker",)

    worker: str

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.worker:
            raise ValidationError("HeartbeatLoss requires a worker name")
        if self.duration_s <= 0:
            raise ValidationError("HeartbeatLoss requires duration_s > 0")


@dataclass(frozen=True, kw_only=True)
class SlowWorker(Fault):
    """One worker's per-dispatch overhead is multiplied by ``factor``
    (a saturated or throttled worker process)."""

    target: ClassVar[tuple[str, ...]] = ("worker",)

    worker: str
    factor: float

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.worker:
            raise ValidationError("SlowWorker requires a worker name")
        if self.factor <= 1.0:
            raise ValidationError(f"slowdown factor must be > 1, got {self.factor}")
        if self.duration_s <= 0:
            raise ValidationError("SlowWorker requires duration_s > 0")


@dataclass(frozen=True, kw_only=True)
class ZonePartition(Fault):
    """Every node of one federation zone is cut off from the rest of
    the cluster (and from clients) — an edge site dropping off the WAN.
    Healing releases this fault's cut and runs DHT anti-entropy on every
    class runtime with members in the zone."""

    zone: str

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.zone:
            raise ValidationError("ZonePartition requires a zone name")
        if self.duration_s <= 0:
            raise ValidationError("ZonePartition requires duration_s > 0")


@dataclass(frozen=True, kw_only=True)
class WanDegradation(Fault):
    """The WAN link between two zones degrades: ``extra_s`` of added
    latency on every transfer between their nodes (symmetric).  With
    ``dst_zone`` omitted, everything in or out of ``src_zone`` slows."""

    src_zone: str
    dst_zone: str | None = None
    extra_s: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.src_zone:
            raise ValidationError("WanDegradation requires a src_zone")
        if self.extra_s <= 0:
            raise ValidationError(f"extra_s must be > 0, got {self.extra_s}")
        if self.duration_s <= 0:
            raise ValidationError("WanDegradation requires duration_s > 0")


@dataclass(frozen=True)
class FaultPlan:
    """A named chaos schedule: the faults, in timeline order."""

    name: str
    faults: tuple[Fault, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("fault plan needs a name")
        object.__setattr__(self, "faults", tuple(self.faults))
        if not self.faults:
            raise ValidationError(f"fault plan {self.name!r} has no faults")
        for fault in self.faults:
            if not isinstance(fault, Fault):
                raise ValidationError(
                    f"fault plan {self.name!r} contains a non-Fault entry: "
                    f"{fault!r}"
                )
        for index, fault in enumerate(self.faults):
            for other in self.faults[index + 1 :]:
                if fault.collides(other):
                    raise ValidationError(
                        f"fault plan {self.name!r}: {fault!r} and {other!r} hold "
                        "one target at once; the first to recover would undo both"
                    )

    @property
    def end_s(self) -> float:
        """When the last fault has been injected and reverted."""
        return max(f.at + f.duration_s for f in self.faults)

    def describe(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "end_s": self.end_s,
            "faults": [f.describe() for f in sorted(self.faults, key=lambda f: f.at)],
        }
