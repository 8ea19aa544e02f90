"""Fault-injection plane: typed fault plans and the chaos injector.

Chaos here is an input, not an accident: a :class:`FaultPlan` lists
typed fault profiles on a timeline, the :class:`ChaosInjector` replays
them through the platform's real seams (node membership, network fault
state, FaaS slowdowns, storage write faults, deployment scaling), and —
because every source of randomness is seeded — the same plan on the
same platform produces byte-identical event logs every run.
"""

from repro.chaos.injector import ChaosInjector, FaultWindow
from repro.chaos.plan import (
    ColdStartStorm,
    Fault,
    FaultPlan,
    HeartbeatLoss,
    NetworkDelay,
    NodeCrash,
    Partition,
    SlowPods,
    SlowWorker,
    StorageFaults,
    WanDegradation,
    WorkerCrash,
    ZonePartition,
)
from repro.chaos.plans import PLAN_NAMES, named_plan

__all__ = [
    "ChaosInjector",
    "FaultWindow",
    "Fault",
    "FaultPlan",
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
    "PLAN_NAMES",
    "named_plan",
]
