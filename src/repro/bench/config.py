"""Shared configuration for the Fig. 3 scalability experiment.

The constants encode the *relationships* that produce the paper's
shape, not the authors' absolute testbed numbers (our substrate is a
simulator — see DESIGN.md §3):

* Worker VMs host ``node_cpu / pod_cpu`` function pods; each pod serves
  ``concurrency`` requests of ``service_time_s`` — so CPU-bound
  throughput grows linearly with VMs.
* The document DB is a *fixed* external service with
  ``db_capacity_units`` of write/read work per second.  The Knative
  baseline spends ``(op + read) + (op + doc)`` units per request; with
  ``db_capacity_units`` calibrated so that ceiling equals the CPU
  throughput of ~6 VMs, the baseline plateaus exactly where Fig. 3
  shows it.
* Oparaca batches ``batch_size`` documents per write op, cutting the
  per-request DB cost ~2x, which moves its ceiling past the 12-VM
  sweep's CPU capacity — higher maximum throughput, sub-linear tail.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Fig3Config"]


@dataclass(frozen=True)
class Fig3Config:
    """Knobs for the scalability sweep (Fig. 3)."""

    nodes_sweep: tuple[int, ...] = (3, 6, 9, 12)
    node_cpu_millis: int = 4000
    node_memory_mb: int = 16384
    pod_cpu_millis: int = 1000
    pod_memory_mb: int = 512
    concurrency: int = 8
    service_time_s: float = 0.1
    knative_overhead_s: float = 0.005
    deployment_overhead_s: float = 0.0004
    cold_start_s: float = 1.8
    db_capacity_units: float = 30000.0
    db_op_cost: float = 4.0
    db_doc_cost: float = 10.0
    db_read_cost: float = 1.0
    batch_size: int = 100
    linger_s: float = 0.02
    max_pending: int = 250
    objects: int = 30000
    clients_per_vm: int = 40
    horizon_s: float = 14.0
    warmup_s: float = 7.0
    json_fields: int = 8
    seed: int = 42

    @property
    def pods_per_node(self) -> int:
        return max(1, self.node_cpu_millis // self.pod_cpu_millis)

    def clients(self, nodes: int) -> int:
        return self.clients_per_vm * nodes

    def max_pods(self, nodes: int) -> int:
        return self.pods_per_node * nodes

    @classmethod
    def quick(cls) -> "Fig3Config":
        """A scaled-down configuration for tests and smoke runs.

        Preserves the qualitative relationships at ~10x less simulated
        work: saturating clients, a DB ceiling that already binds the
        Knative baseline at 3 VMs (so the plateau is visible across the
        two swept sizes), and a warm-up long enough to cover autoscaler
        reaction plus cold starts.
        """
        return cls(
            nodes_sweep=(3, 6),
            objects=2000,
            clients_per_vm=40,
            horizon_s=10.0,
            warmup_s=6.0,
            db_capacity_units=12000.0,
            max_pending=2000,
        )
