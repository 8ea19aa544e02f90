"""Overlapping faults: every recover releases exactly what its inject took.

Partitions and delays are handles, so overlapping ones stack and heal
one at a time.  A seam that holds one value — a node's membership, the
store's write-fault rate, one worker's knob, a service's slowdown —
cannot stack, so :class:`FaultPlan` rejects two faults that would hold
it at once.  The property test walks random plans and checks, between
every pair of action instants, that the seams hold exactly what the
held faults imply.
"""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.chaos import (
    Fault,
    FaultPlan,
    HeartbeatLoss,
    NetworkDelay,
    NodeCrash,
    Partition,
    SlowPods,
    SlowWorker,
    StorageFaults,
    WorkerCrash,
)
from repro.errors import SimulationError, ValidationError

from tests.golden.chaos import DEMO_HANDLERS, DEMO_PACKAGE, demo_platform
from tests.helpers import make_platform

NODES = ("vm-0", "vm-1", "vm-2", "vm-3")
TWO_CUTS = (
    Partition(at=1.0, duration_s=5.0, nodes=("vm-1",)),
    Partition(at=2.0, duration_s=5.0, nodes=("vm-2",)),
)


class TestOverlappingPartitions:
    def test_each_node_stays_cut_while_its_fault_is_held(self):
        platform, _ = demo_platform()
        platform.inject_chaos(FaultPlan("two-cuts", TWO_CUTS))
        network = platform.network
        platform.advance(3.0 - platform.now)
        assert network.is_partitioned("vm-0", "vm-1")
        assert network.is_partitioned("vm-0", "vm-2")
        assert network.is_partitioned("vm-1", "vm-2")
        platform.advance(3.5)  # t = 6.5: vm-1 healed, vm-2 held until 7
        assert not network.is_partitioned("vm-0", "vm-1")
        assert network.is_partitioned("vm-0", "vm-2")
        platform.advance(1.0)
        assert not network.fault_state().active


#: Two faults holding one single-valued seam at once.
CLASHES = {
    "storage": (
        StorageFaults(at=1.0, duration_s=5.0, error_rate=0.5),
        StorageFaults(at=2.0, duration_s=1.0, error_rate=0.9),
    ),
    "node": (
        NodeCrash(at=1.0, duration_s=5.0, node="vm-1"),
        NodeCrash(at=2.0, duration_s=1.0, node="vm-1"),
    ),
    "permanent-node": (
        NodeCrash(at=1.0, node="vm-1"),
        NodeCrash(at=9.0, duration_s=1.0, node="vm-1"),
    ),
    "worker": (
        WorkerCrash(at=1.0, duration_s=2.0, worker="worker-0"),
        WorkerCrash(at=2.0, duration_s=2.0, worker="worker-0"),
    ),
    "heartbeats": (
        HeartbeatLoss(at=1.0, duration_s=2.0, worker="worker-1"),
        HeartbeatLoss(at=1.5, duration_s=0.5, worker="worker-1"),
    ),
    "slow-worker": (
        SlowWorker(at=1.0, duration_s=2.0, worker="worker-2", factor=2.0),
        SlowWorker(at=2.5, duration_s=2.0, worker="worker-2", factor=3.0),
    ),
    "slow-host": (
        SlowPods(at=1.0, duration_s=4.0, factor=2.0, node="vm-0"),
        SlowPods(at=2.0, duration_s=4.0, factor=3.0, cls="Ledger", node="vm-0"),
    ),
    "slow-service-wide": (
        SlowPods(at=1.0, duration_s=4.0, factor=2.0, cls="Ledger"),
        SlowPods(at=2.0, duration_s=4.0, factor=3.0, node="vm-1"),
    ),
}

#: Pairs that touch other targets, or one target at other times.
STACKS = {
    "back-to-back": (
        StorageFaults(at=1.0, duration_s=2.0, error_rate=0.5),
        StorageFaults(at=3.0, duration_s=2.0, error_rate=0.9),
    ),
    "two-nodes": (
        NodeCrash(at=1.0, duration_s=5.0, node="vm-1"),
        NodeCrash(at=2.0, duration_s=1.0, node="vm-2"),
    ),
    "two-worker-kinds": (
        WorkerCrash(at=1.0, duration_s=2.0, worker="worker-0"),
        HeartbeatLoss(at=1.5, duration_s=2.0, worker="worker-0"),
    ),
    "two-classes": (
        SlowPods(at=1.0, duration_s=4.0, factor=2.0, cls="Ledger"),
        SlowPods(at=2.0, duration_s=4.0, factor=3.0, cls="Scratch"),
    ),
    "two-hosts": (
        SlowPods(at=1.0, duration_s=4.0, factor=2.0, node="vm-0"),
        SlowPods(at=2.0, duration_s=4.0, factor=3.0, node="vm-1"),
    ),
    "cuts": TWO_CUTS,
    "delays": (
        NetworkDelay(at=1.0, duration_s=4.0, extra_s=0.01),
        NetworkDelay(at=2.0, duration_s=4.0, extra_s=0.02),
    ),
}


class TestScopedDelay:
    def test_a_scoped_delay_slows_its_own_path_only(self):
        platform, _ = demo_platform()
        delay = NetworkDelay(at=1.0, duration_s=4.0, extra_s=0.02, src="vm-0", dst="vm-2")
        platform.inject_chaos(FaultPlan("scoped", (delay,)))
        platform.advance(2.0 - platform.now)
        network = platform.network.fault_state()
        assert network.extra_latency("vm-0", "vm-2") == pytest.approx(0.02)
        assert network.extra_latency("vm-2", "vm-0") == pytest.approx(0.02)
        assert network.extra_latency("vm-0", "vm-1") == 0.0
        assert network.extra_latency(None, "vm-2") == 0.0


class TestSingleValuedSeams:
    @pytest.mark.parametrize("name", list(CLASHES))
    def test_overlap_on_one_target_is_rejected(self, name):
        first, second = CLASHES[name]
        with pytest.raises(ValidationError) as caught:
            FaultPlan(name, (first, second))
        assert repr(first) in str(caught.value)
        assert repr(second) in str(caught.value)

    @pytest.mark.parametrize("name", list(STACKS))
    def test_other_targets_or_times_are_accepted(self, name):
        assert len(FaultPlan(name, STACKS[name]).faults) == 2

    def test_unknown_kind_fails_at_run_start(self):
        class Meteor(Fault):
            """A kind with no injector row."""

        platform, _ = demo_platform()
        platform.inject_chaos(FaultPlan("meteor", (Meteor(at=1.0),)))
        with pytest.raises(SimulationError) as caught:
            platform.advance(0.01)
        assert isinstance(caught.value.__cause__, SimulationError)
        assert "no injector row for fault kind 'Meteor'" in str(caught.value)


# -- property: held faults == seam state -------------------------------------

GRID = st.integers(0, 24).map(lambda k: k / 4)
SPAN = st.integers(1, 16).map(lambda k: k / 4)
random_faults = st.lists(
    st.one_of(
        st.builds(
            Partition,
            at=GRID,
            duration_s=SPAN,
            nodes=st.lists(st.sampled_from(NODES), min_size=1, max_size=3, unique=True),
        ),
        st.builds(
            NetworkDelay,
            at=GRID,
            duration_s=SPAN,
            extra_s=st.sampled_from((0.01, 0.05)),
            src=st.sampled_from((None, *NODES)),
            dst=st.sampled_from((None, *NODES)),
        ),
        st.builds(StorageFaults, at=GRID, duration_s=SPAN, error_rate=st.sampled_from((0.25, 1.0))),
        st.builds(
            SlowPods,
            at=GRID,
            duration_s=SPAN,
            factor=st.sampled_from((2.0, 3.0)),
            cls=st.sampled_from((None, "Ledger", "Scratch")),
            node=st.sampled_from((None, *NODES)),
        ),
    ),
    min_size=1,
    max_size=5,
)


def held(faults, kind, t):
    return [f for f in faults if isinstance(f, kind) and f.at <= t < f.at + f.duration_s]


def check_seams(platform, faults, t):
    """At time ``t`` the seams hold exactly what the faults held imply."""
    network = platform.network.fault_state()
    cuts = held(faults, Partition, t)
    delays = held(faults, NetworkDelay, t)

    def extra(a, b):
        """Delays are symmetric; a ``None`` endpoint matches any node."""
        return sum(
            f.extra_s
            for f in delays
            if (f.src in (None, a) and f.dst in (None, b))
            or (f.src in (None, b) and f.dst in (None, a))
        )

    def side(node):
        return {index for index, cut in enumerate(cuts) if node in cut.nodes}

    for a, b in itertools.combinations((None, *NODES), 2):
        assert network.partitioned(a, b) == (side(a) != side(b)), (t, a, b)
        assert network.extra_latency(a, b) == pytest.approx(extra(a, b)), (t, a, b)
    storage = held(faults, StorageFaults, t)
    assert platform.store._write_fault_rate == (storage[0].error_rate if storage else 0.0), t
    slow = held(faults, SlowPods, t)
    for cls, runtime in platform.crm.runtimes.items():
        for svc in runtime.services.values():
            for node in NODES:
                expected = math.prod(
                    f.factor for f in slow if f.cls in (None, cls) and f.node in (None, node)
                )
                factor = svc._slow_factor * svc._node_slow.get(node, 1.0)
                assert factor == pytest.approx(expected), (t, cls, node)


class TestHeldFaultsMatchSeams:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    @given(faults=random_faults)
    @example(faults=list(TWO_CUTS))
    def test_seams_follow_the_held_faults(self, faults):
        try:
            plan = FaultPlan("random", tuple(faults))
        except ValidationError:
            assume(False)
        platform = make_platform(DEMO_PACKAGE.read_text(), DEMO_HANDLERS, nodes=len(NODES))
        assert platform.now == 0.0
        platform.inject_chaos(plan)
        instants = sorted({f.at for f in faults} | {f.at + f.duration_s for f in faults})
        for start, end in zip(instants, instants[1:]):
            t = (start + end) / 2
            platform.advance(t - platform.now)
            check_seams(platform, faults, t)
        platform.advance(plan.end_s + 0.5 - platform.now)
        assert not platform.network.fault_state().active
        assert platform.store._write_fault_rate == 0.0
        for runtime in platform.crm.runtimes.values():
            for svc in runtime.services.values():
                assert svc._slow_factor == 1.0 and not svc._node_slow
