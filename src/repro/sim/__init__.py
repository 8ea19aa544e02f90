"""Discrete-event simulation substrate.

The data plane of the platform (invocations, storage, autoscaling, load
generation) runs on this kernel.  See ``kernel`` for the event engine,
``resources`` for queueing primitives, ``network`` for the fabric model,
``workload`` for load generators, and ``rng`` for deterministic streams.
"""

from repro.sim.kernel import Environment, Event, Process, Timeout, all_of, any_of
from repro.sim.network import Network, NetworkModel
from repro.sim.resources import Container, Gate, RateLimiter, Resource
from repro.sim.rng import RngStreams
from repro.sim.workload import (
    ClosedLoopGenerator,
    HerdLoad,
    LoadStats,
    OpenLoopGenerator,
    PhasedOpenLoopGenerator,
)

__all__ = [
    "Environment",
    "Event",
    "Process",
    "Timeout",
    "all_of",
    "any_of",
    "Network",
    "NetworkModel",
    "Resource",
    "Container",
    "RateLimiter",
    "Gate",
    "RngStreams",
    "LoadStats",
    "OpenLoopGenerator",
    "PhasedOpenLoopGenerator",
    "ClosedLoopGenerator",
    "HerdLoad",
]
