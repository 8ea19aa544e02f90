"""Cluster network model.

A datacenter fabric: a fixed per-hop round-trip latency plus a
serialization delay from per-link bandwidth.  Transfers between
co-located endpoints (same node) pay only a loopback latency, which is
what makes data-locality optimizations measurable (experiment
ABL-LOCALITY in DESIGN.md).

Multi-datacenter support (the paper's §VI future work): when the
network is given a ``region_of`` resolver, transfers between nodes in
*different* regions pay the (much larger) inter-region round trip —
which is what makes jurisdiction-constrained placement and
latency-aware multi-DC deployment measurable.  Given the cluster's
``topology`` too, a pair its RTT matrix declares pays that RTT instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

from repro.errors import NetworkPartitionError
from repro.sim.kernel import Environment, Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.orchestrator.topology import ZoneTopology

__all__ = ["NetworkModel", "NetworkFaults", "Network"]


@dataclass(frozen=True)
class NetworkModel:
    """Latency/bandwidth parameters of the fabric.

    Attributes:
        rtt_s: round-trip latency between two distinct nodes of the same
            datacenter (seconds).
        loopback_s: round-trip latency within one node (seconds).
        inter_region_rtt_s: round-trip latency between nodes in
            different datacenters/regions.
        bandwidth_bps: per-transfer bandwidth in bytes/second; ``0``
            disables the serialization term.
    """

    rtt_s: float = 0.0005
    loopback_s: float = 0.00002
    inter_region_rtt_s: float = 0.04
    bandwidth_bps: float = 1.25e9  # ~10 Gbit/s

    def transfer_time(
        self,
        src: str | None,
        dst: str | None,
        nbytes: int = 0,
        cross_region: bool = False,
    ) -> float:
        """Time for a request/response exchange carrying ``nbytes``."""
        if src is not None and src == dst:
            base = self.loopback_s
        elif cross_region:
            base = self.inter_region_rtt_s
        else:
            base = self.rtt_s
        if nbytes and self.bandwidth_bps:
            base += nbytes / self.bandwidth_bps
        return base


#: A zero-cost model for interactive (non-benchmark) use.
INSTANT = NetworkModel(rtt_s=0.0, loopback_s=0.0, inter_region_rtt_s=0.0, bandwidth_bps=0.0)

#: The side of a node (or client) no cut isolates.
_NO_CUT: frozenset[int] = frozenset()


class NetworkFaults:
    """Mutable fault state the chaos plane injects into a :class:`Network`.

    Two fault families, both held by token so that overlapping faults
    release only their own share:

    * **partitions** — :meth:`isolate` cuts a set of nodes off and
      returns a token for :meth:`heal`.  A node's *side* is the set of
      cuts isolating it; a transfer whose endpoints sit on different
      sides fails with :class:`NetworkPartitionError` after
      ``partition_timeout_s`` of simulated time (a connect timeout, not
      an instant refusal).  External endpoints (``None`` — the
      gateway/client) are in no cut, on the majority side.
    * **added latency** — extra seconds charged on matching remote
      transfers (scoped by optional src/dst node sets; symmetric).

    A :class:`Network` without an attached ``NetworkFaults`` (the
    default) pays nothing for this machinery beyond one ``is None``
    branch per transfer.
    """

    def __init__(self, partition_timeout_s: float = 0.05) -> None:
        self.partition_timeout_s = partition_timeout_s
        self._cuts: dict[int, frozenset[str]] = {}
        #: node -> the tokens of the cuts isolating it (its side).
        self._side_of: dict[str, frozenset[int]] = {}
        self._delays: dict[int, tuple[frozenset[str] | None, frozenset[str] | None, float]] = {}
        self._next_token = 0

    @property
    def active(self) -> bool:
        return bool(self._side_of) or bool(self._delays)

    # -- partitions -------------------------------------------------------

    def isolate(self, nodes: Iterable[str]) -> int:
        """Cut ``nodes`` off from the rest of the cluster (and clients);
        returns a token for :meth:`heal`."""
        self._next_token += 1
        self._cuts[self._next_token] = frozenset(nodes)
        self._split()
        return self._next_token

    def heal(self, token: int) -> None:
        """Release one cut; every other cut holds."""
        self._cuts.pop(token, None)
        self._split()

    def clear_partition(self) -> None:
        """Release every cut."""
        self._cuts.clear()
        self._split()

    def _split(self) -> None:
        side_of: dict[str, set[int]] = {}
        for token, nodes in self._cuts.items():
            for node in nodes:
                side_of.setdefault(node, set()).add(token)
        self._side_of = {node: frozenset(tokens) for node, tokens in side_of.items()}

    def partitioned(self, a: str | None, b: str | None) -> bool:
        if not self._side_of:
            return False
        return self._side_of.get(a, _NO_CUT) != self._side_of.get(b, _NO_CUT)

    # -- added latency ----------------------------------------------------

    def add_delay(
        self,
        extra_s: float,
        src: Iterable[str] | None = None,
        dst: Iterable[str] | None = None,
    ) -> int:
        """Charge ``extra_s`` on matching remote transfers; returns a
        token for :meth:`remove_delay`.  ``None`` scopes match any
        endpoint (including external clients); rules are symmetric."""
        self._next_token += 1
        self._delays[self._next_token] = (
            frozenset(src) if src else None,
            frozenset(dst) if dst else None,
            float(extra_s),
        )
        return self._next_token

    def remove_delay(self, token: int) -> None:
        self._delays.pop(token, None)

    @staticmethod
    def _matches(scope: frozenset[str] | None, node: str | None) -> bool:
        return scope is None or node in scope

    def extra_latency(self, a: str | None, b: str | None) -> float:
        total = 0.0
        for src, dst, extra in self._delays.values():
            if (self._matches(src, a) and self._matches(dst, b)) or (
                self._matches(src, b) and self._matches(dst, a)
            ):
                total += extra
        return total


class Network:
    """Applies a :class:`NetworkModel` inside simulation processes."""

    def __init__(
        self,
        env: Environment,
        model: NetworkModel | None = None,
        region_of: Callable[[str], str | None] | None = None,
        topology: ZoneTopology | None = None,
    ) -> None:
        self.env = env
        self.model = model or INSTANT
        self.region_of = region_of
        #: The cluster's topology (its default RTT is the model's
        #: ``inter_region_rtt_s``); ``None`` = every crossing is flat.
        self.topology = topology
        #: Fault state injected by the chaos plane; ``None`` = healthy.
        self.faults: NetworkFaults | None = None
        #: (src, dst) -> (crosses a region border?, the pair's RTT minus
        #: the flat inter-region RTT), asked once.  A function of which
        #: region each node name sits in: listed in ``Cluster.memos``.
        self._pairs: dict[tuple[str | None, str | None], tuple[bool, float]] = {}
        self.total_transfers = 0
        self.total_bytes = 0
        self.remote_transfers = 0
        self.cross_region_transfers = 0

    def _resolve_pair(self, src: str | None, dst: str | None) -> tuple[bool, float]:
        cross, adjust = False, 0.0
        if self.region_of is not None and src is not None and dst is not None:
            src_region = self.region_of(src)
            dst_region = self.region_of(dst)
            cross = (
                src_region is not None
                and dst_region is not None
                and src_region != dst_region
            )
            if cross and self.topology is not None:
                adjust = (
                    self.topology.cross_rtt_s(src_region, dst_region)
                    - self.topology.default_rtt_s
                )
        self._pairs[(src, dst)] = cross, adjust
        return cross, adjust

    def transfer(self, src: str | None, dst: str | None, nbytes: int = 0) -> Event:
        """Return an event firing when the exchange completes.

        Under an injected partition separating ``src`` and ``dst`` the
        event *fails* with :class:`NetworkPartitionError` after the
        fault state's connect timeout."""
        self.total_transfers += 1
        self.total_bytes += nbytes
        if src is None or src != dst:
            self.remote_transfers += 1
        cross, adjust = self._pairs.get((src, dst)) or self._resolve_pair(src, dst)
        delay = self.model.transfer_time(src, dst, nbytes, cross)
        if cross:
            self.cross_region_transfers += 1
            delay += adjust
        faults = self.faults
        if faults is not None and faults.active:
            if faults.partitioned(src, dst):
                return self._drop(src, dst, faults.partition_timeout_s)
            if src is None or src != dst:
                delay += faults.extra_latency(src, dst)
        return self.env.timeout(delay)

    def _drop(self, src: str | None, dst: str | None, timeout_s: float) -> Event:
        """A pre-failed event firing after the partition connect timeout."""
        event = Event(self.env)
        event._ok = False
        event._value = NetworkPartitionError(
            f"network partition: {src or 'client'} cannot reach {dst or 'client'}"
        )
        self.env._schedule(event, delay=timeout_s)
        return event

    def fault_state(self) -> NetworkFaults:
        """The attached fault state, created on first use (chaos plane)."""
        if self.faults is None:
            self.faults = NetworkFaults()
        return self.faults

    def is_partitioned(self, src: str | None, dst: str | None) -> bool:
        """Instant partition check (no simulated time)."""
        return self.faults is not None and self.faults.partitioned(src, dst)

    def check_path(self, src: str | None, dst: str | None) -> None:
        """Raise :class:`NetworkPartitionError` if ``src`` cannot reach
        ``dst`` — an instant control-plane health check."""
        if self.faults is not None and self.faults.partitioned(src, dst):
            raise NetworkPartitionError(
                f"network partition: {src or 'client'} cannot reach {dst or 'client'}"
            )
