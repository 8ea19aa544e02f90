#!/usr/bin/env python3
"""Multi-datacenter federation — the paper's §VI future work, implemented.

"In the future, we plan to develop Oparaca to support application
deployment across multiple data centers, thereby unlocking the
opportunity for non-functional requirements such as latency and
jurisdiction."

This example runs the federation plane over a three-tier edge → regional
→ core topology, **twice with the same seed**, and exits nonzero unless
both runs land on a field-identical summary (CI runs it as the
determinism gate).  It shows:

* a jurisdiction-constrained class (``constraint: { jurisdiction: eu }``)
  whose state partitions and function pods are provably confined to EU
  zones, and whose latency NFR pins it to the edge tier;
* geo-routing: clients carry an origin zone, invocations route to the
  nearest eligible replica, and a cross-jurisdiction access is rejected
  with HTTP 451 and counted into the ``jurisdiction`` NFR verdict;
* a live migration drill: the record hands off from the edge site to
  the regional DC mid-workload, version-guarded and epoch-fenced, and
  every acknowledged write stays visible exactly once.

Run:  python examples/multi_datacenter.py [seed] [--json]
"""

from __future__ import annotations

import json
import sys
from typing import Any

from repro import Oparaca
from repro.federation import FederationConfig, Zone
from repro.platform.oparaca import PlatformConfig
from repro.sim.network import NetworkModel

PACKAGE = """
name: compliance-app
classes:
  - name: EuHealthRecord
    constraint:
      jurisdiction: eu             # GDPR-style data residency
    qos:
      latency: 25                  # pins the class to the edge tier
    keySpecs:
      - { name: subject, type: STR }
      - { name: entries, type: JSON, default: [] }
    functions:
      - { name: append, image: med/append }
  - name: PublicDataset
    keySpecs:
      - { name: rows, type: INT, default: 0 }
    functions:
      - { name: ingest, image: med/ingest }
"""

ZONES = (
    Zone("eu-edge", tier="edge", region="eu", parent="eu-region"),
    Zone("eu-region", tier="regional", region="eu", parent="core"),
    Zone("core", tier="core"),
)
ZONE_RTT_S = (
    ("eu-edge", "eu-region", 0.015),
    ("eu-edge", "core", 0.08),
    ("eu-region", "core", 0.03),
)


def build_platform(seed: int) -> Oparaca:
    platform = Oparaca(
        PlatformConfig(
            seed=seed,
            nodes=6,  # labelled round-robin over the zones, in order
            network=NetworkModel(rtt_s=0.0005, inter_region_rtt_s=0.08),
            federation=FederationConfig(
                enabled=True, zones=ZONES, zone_rtt_s=ZONE_RTT_S
            ),
        )
    )

    @platform.function("med/append", service_time_s=0.002)
    def append(ctx):
        entries = list(ctx.state.get("entries") or [])
        entries.append(ctx.payload["entry"])
        ctx.state["entries"] = entries
        return {"count": len(entries)}

    @platform.function("med/ingest", service_time_s=0.002)
    def ingest(ctx):
        ctx.state["rows"] = int(ctx.state.get("rows") or 0) + int(ctx.payload["rows"])
        return {"rows": ctx.state["rows"]}

    platform.deploy(PACKAGE)
    return platform


def timed_invoke(platform: Oparaca, oid: str, fn: str, body: dict, origin: str):
    started = platform.now
    response = platform.http(
        "POST",
        f"/api/objects/{oid}/invokes/{fn}",
        body,
        headers={"x-origin-zone": origin},
    )
    return response, (platform.now - started) * 1000.0


def run_demo(seed: int) -> dict[str, Any]:
    """One seeded pass; every field of the returned summary must be
    identical run-to-run at one seed."""
    platform = build_platform(seed)
    planner = platform.federation.planner
    summary: dict[str, Any] = {"seed": seed}

    summary["zones"] = {
        node: platform.cluster.region_of(node)
        for node in platform.cluster.node_names
    }
    eu_dht = platform.crm.dht_for("EuHealthRecord")
    summary["eu_state_nodes"] = sorted(eu_dht.nodes)
    summary["public_state_nodes"] = sorted(
        platform.crm.dht_for("PublicDataset").nodes
    )

    record = platform.new_object(
        "EuHealthRecord", {"subject": "patient-7"}, object_id="rec-7"
    )
    acked = 0
    for i in range(3):
        response, _ = timed_invoke(
            platform, record, "append", {"entry": f"visit-{i}"}, "eu-edge"
        )
        acked += response.status == 200
    service = platform.crm.runtime("EuHealthRecord").services["append"]
    pod_nodes = sorted({pod.node for pod in service.deployment.pods})
    summary["pod_nodes"] = pod_nodes
    summary["pod_jurisdictions"] = sorted(
        {planner.zone_of_node(n).region for n in pod_nodes}
    )
    owner = eu_dht.owner(record)
    summary["owner_zone"] = planner.zone_of_node(owner).name

    # Geo-routing: the edge-pinned record from its own site vs the
    # core-consolidated dataset from the same site.
    dataset = platform.new_object("PublicDataset", object_id="ds-1")
    timed_invoke(platform, dataset, "ingest", {"rows": 1}, "eu-edge")  # warm
    _, edge_ms = timed_invoke(
        platform, record, "append", {"entry": "local"}, "eu-edge"
    )
    acked += 1
    _, core_ms = timed_invoke(
        platform, dataset, "ingest", {"rows": 10}, "eu-edge"
    )
    summary["edge_local_ms"] = round(edge_ms, 3)
    summary["edge_to_core_ms"] = round(core_ms, 3)

    # Jurisdiction: the same record accessed from outside the EU.
    rejected, _ = timed_invoke(
        platform, record, "append", {"entry": "intruder"}, "core"
    )
    summary["cross_jurisdiction_status"] = rejected.status
    summary["cross_jurisdiction_error"] = rejected.body.get("type")

    # Live migration drill: hand the record off to the regional DC,
    # keep writing, and audit exactly-once visibility.
    migration = platform.migrate_object(record, "eu-region", cls="EuHealthRecord")
    summary["migration"] = {
        "source_zone": migration["source_zone"],
        "target_zone": migration["target_zone"],
        "version": migration["version"],
        "epoch": migration["epoch"],
        "duration_ms": round(migration["duration_s"] * 1000.0, 3),
    }
    summary["owner_zone_after"] = planner.zone_of_node(eu_dht.owner(record)).name
    for i in range(3):
        response, _ = timed_invoke(
            platform, record, "append", {"entry": f"post-{i}"}, "eu-region"
        )
        acked += response.status == 200
    entries = platform.get_object(record)["state"]["entries"]
    summary["acked_appends"] = acked
    summary["surviving_entries"] = len(entries)

    verdicts = platform.nfr_report()
    summary["jurisdiction_verdicts"] = [
        {"cls": v.cls, "observed": v.observed, "met": v.met}
        for v in verdicts
        if v.requirement == "jurisdiction"
    ]
    summary["federation"] = {
        key: platform.report("federation")[key]
        for key in ("migrations_total", "rejections_total", "cross_zone_total")
    }
    platform.shutdown()
    return summary


def main() -> int:
    argv = [arg for arg in sys.argv[1:] if arg != "--json"]
    as_json = "--json" in sys.argv[1:]
    seed = int(argv[0]) if argv else 11

    first = run_demo(seed)
    second = run_demo(seed)

    if as_json:
        print(json.dumps({**first, "deterministic": first == second}, indent=2))
    else:
        print(f"=== three-tier federation demo (seed {seed}) ===")
        print("node zones:")
        for node, zone in first["zones"].items():
            print(f"  {node}: {zone}")
        print(f"\nEuHealthRecord state nodes: {first['eu_state_nodes']}")
        print(f"PublicDataset state nodes:  {first['public_state_nodes']}")
        print(
            f"append() replicas run on {first['pod_nodes']} "
            f"(jurisdictions: {first['pod_jurisdictions']})"
        )
        print(f"record owner zone: {first['owner_zone']}")
        print(
            f"\nedge-origin invoke, edge-pinned record:   "
            f"{first['edge_local_ms']:.2f} ms"
        )
        print(
            f"edge-origin invoke, core-placed dataset:  "
            f"{first['edge_to_core_ms']:.2f} ms"
        )
        print(
            f"\naccess from 'core' origin rejected: HTTP "
            f"{first['cross_jurisdiction_status']} "
            f"({first['cross_jurisdiction_error']})"
        )
        mig = first["migration"]
        print(
            f"\nlive migration: {mig['source_zone']} -> {mig['target_zone']} "
            f"at version {mig['version']} (epoch {mig['epoch']}, "
            f"{mig['duration_ms']:.1f} ms)"
        )
        print(f"owner zone after migration: {first['owner_zone_after']}")
        print(
            f"exactly-once audit: {first['acked_appends']} acked appends, "
            f"{first['surviving_entries']} surviving entries"
        )
        for verdict in first["jurisdiction_verdicts"]:
            state = "met" if verdict["met"] else "VIOLATED"
            print(
                f"jurisdiction verdict [{verdict['cls']}]: "
                f"{int(verdict['observed'])} rejection(s) counted -> {state}"
            )

    failures = []
    if first != second:
        changed = sorted(
            key for key in first if first.get(key) != second.get(key)
        )
        failures.append(f"summaries differ between runs: {changed}")
    if first["acked_appends"] != first["surviving_entries"]:
        failures.append(
            f"exactly-once audit failed: {first['acked_appends']} acked vs "
            f"{first['surviving_entries']} surviving"
        )
    if first["cross_jurisdiction_status"] != 451:
        failures.append("cross-jurisdiction access was not rejected with 451")
    if first["owner_zone_after"] != "eu-region":
        failures.append("migration did not land the record in eu-region")
    if any(verdict["observed"] == 0 for verdict in first["jurisdiction_verdicts"]):
        failures.append("jurisdiction verdict counted no rejections")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        print("\nmulti-datacenter demo FAILED", file=sys.stderr)
        return 1
    if not as_json:
        print("\nmulti-datacenter demo complete.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
