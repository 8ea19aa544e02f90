"""FIG3 — the scalability experiment (paper §V, Fig. 3).

Sweeps worker VMs over ``cfg.nodes_sweep`` for each system and measures
saturated throughput with a closed-loop client population sized to keep
every replica busy.  The expected shape (paper §V):

* ``knative`` plateaus once the shared document DB's write ceiling is
  reached (~6 VMs with the default calibration);
* ``oprc`` exceeds that ceiling via DHT write-behind batching, but
  bends sub-linear as the batched ceiling approaches;
* ``oprc-bypass`` runs above ``oprc`` (no Knative data-path overhead);
* ``oprc-bypass-nonpersist`` is highest and closest to linear.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.bench.config import Fig3Config
from repro.bench.systems import SYSTEMS, BenchSystem, build_system
from repro.sim.workload import ClosedLoopGenerator, LoadStats

__all__ = ["Fig3Row", "run_closed_loop", "run_cell", "run_fig3"]


@dataclass(frozen=True)
class Fig3Row:
    """One (system, cluster size) measurement."""

    system: str
    nodes: int
    throughput_rps: float
    mean_latency_ms: float
    p99_latency_ms: float
    completed: int
    failed: int
    extras: dict[str, Any] = field(default_factory=dict)


def run_closed_loop(system: BenchSystem) -> LoadStats:
    """Drive a prepared ``system`` with ``cfg.clients(nodes)`` saturating
    closed-loop clients up to ``cfg.horizon_s``; return their stats (a
    request still in flight at the horizon is recorded when it ends)."""
    cfg = system.cfg
    generator = ClosedLoopGenerator(
        system.env,
        system.request,
        clients=cfg.clients(system.nodes),
        horizon_s=cfg.horizon_s,
        warmup_s=cfg.warmup_s,
    )
    system.env.run(until=cfg.horizon_s)
    return generator.stats


def run_cell(system_name: str, nodes: int, cfg: Fig3Config | None = None) -> Fig3Row:
    """Run one cell of the sweep and return its measurement."""
    cfg = cfg or Fig3Config()
    system = build_system(system_name, cfg, nodes)
    system.prepare()
    stats = run_closed_loop(system)
    row = Fig3Row(
        system=system_name,
        nodes=nodes,
        throughput_rps=stats.throughput(cfg.horizon_s),
        mean_latency_ms=stats.mean_latency * 1000.0,
        p99_latency_ms=stats.latency_percentile(99) * 1000.0,
        completed=stats.measured_completed,
        failed=stats.failed,
        extras=system.extras(),
    )
    system.shutdown()
    return row


def run_fig3(
    cfg: Fig3Config | None = None,
    systems: Iterable[str] = SYSTEMS,
    nodes_sweep: Iterable[int] | None = None,
) -> list[Fig3Row]:
    """Run the full sweep; rows ordered by (system, nodes)."""
    cfg = cfg or Fig3Config()
    sweep = tuple(nodes_sweep) if nodes_sweep is not None else cfg.nodes_sweep
    rows: list[Fig3Row] = []
    for system_name in systems:
        for nodes in sweep:
            rows.append(run_cell(system_name, nodes, cfg))
    return rows
