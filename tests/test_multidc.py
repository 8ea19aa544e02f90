"""Tests for multi-datacenter deployment (paper §VI future work).

Regions, jurisdiction-constrained placement of state and pods, and the
inter-region latency model.
"""

import pytest

from repro.errors import DeploymentError
from repro.platform.oparaca import Oparaca, PlatformConfig
from repro.sim.kernel import Environment
from repro.sim.network import Network, NetworkModel

EU_PACKAGE = """
classes:
  - name: EuRecord
    constraint:
      jurisdiction: eu-west
    keySpecs:
      - { name: payload, type: STR }
    functions:
      - { name: touch, image: dc/touch }
  - name: GlobalRecord
    keySpecs:
      - { name: payload, type: STR }
    functions:
      - { name: touch, image: dc/touch }
"""


def multi_dc_platform(nodes=4, regions=("us-east", "eu-west")):
    platform = Oparaca(PlatformConfig(nodes=nodes, regions=regions))

    @platform.function("dc/touch", service_time_s=0.001)
    def touch(ctx):
        ctx.state["payload"] = str(ctx.payload.get("value", ""))
        return {"node": "ok"}

    platform.deploy(EU_PACKAGE)
    return platform


class TestRegions:
    def test_nodes_labelled_round_robin(self):
        platform = multi_dc_platform()
        regions = [platform.cluster.region_of(n) for n in platform.cluster.node_names]
        assert regions == ["us-east", "eu-west", "us-east", "eu-west"]
        assert platform.cluster.regions == ("eu-west", "us-east")

    def test_nodes_in_regions(self):
        platform = multi_dc_platform()
        eu_nodes = platform.cluster.nodes_in_regions(("eu-west",))
        assert eu_nodes == ["vm-1", "vm-3"]

    def test_unknown_endpoint_region_neutral(self):
        platform = multi_dc_platform()
        assert platform.cluster.region_of("external-client") is None


class TestJurisdiction:
    def test_state_confined_to_allowed_region(self):
        platform = multi_dc_platform()
        eu_nodes = set(platform.cluster.nodes_in_regions(("eu-west",)))
        dht = platform.crm.dht_for("EuRecord")
        assert set(dht.nodes) == eu_nodes
        for i in range(20):
            obj = platform.new_object("EuRecord", {"payload": f"p{i}"})
            assert dht.owner(obj) in eu_nodes

    def test_pods_confined_to_allowed_region(self):
        platform = multi_dc_platform()
        eu_nodes = set(platform.cluster.nodes_in_regions(("eu-west",)))
        obj = platform.new_object("EuRecord")
        platform.invoke(obj, "touch", {"value": "x"})  # forces a replica up
        service = platform.crm.runtime("EuRecord").services["touch"]
        assert service.deployment.pods, "expected at least one replica"
        for pod in service.deployment.pods:
            assert pod.node in eu_nodes

    def test_unconstrained_class_spans_all_nodes(self):
        platform = multi_dc_platform()
        dht = platform.crm.dht_for("GlobalRecord")
        assert set(dht.nodes) == set(platform.cluster.node_names)

    def test_impossible_jurisdiction_rejected_at_deploy(self):
        platform = Oparaca(PlatformConfig(nodes=2, regions=("us-east",)))
        platform.register_image("dc/touch", lambda ctx: {})
        with pytest.raises(DeploymentError, match="jurisdiction"):
            platform.deploy(
                "classes:\n  - name: X\n    constraint: { jurisdiction: mars }\n"
            )

    def test_jurisdiction_without_regions_rejected(self):
        platform = Oparaca(PlatformConfig(nodes=2))  # no region labels
        platform.register_image("dc/touch", lambda ctx: {})
        with pytest.raises(DeploymentError):
            platform.deploy(
                "classes:\n  - name: X\n    constraint: { jurisdiction: eu-west }\n"
            )

    def test_invocations_still_work_under_constraint(self):
        platform = multi_dc_platform()
        obj = platform.new_object("EuRecord")
        result = platform.invoke(obj, "touch", {"value": "gdpr"})
        assert result.ok
        assert platform.get_object(obj)["state"]["payload"] == "gdpr"


class TestPlacementRefresh:
    """A jurisdiction-constrained class's pod hints follow cluster
    membership on a flat ``regions=`` platform, with no federation plane."""

    EU = """
classes:
  - name: Eu
    constraint: { jurisdictions: [eu] }
    functions:
      - { name: touch, image: dc/touch }
"""

    def hints(self, platform):
        return platform.crm.runtime("Eu").services["touch"].deployment.node_hints

    def test_hints_follow_joins_and_failures(self):
        platform = Oparaca(PlatformConfig(nodes=4, regions=("eu", "us")))
        platform.register_image("dc/touch", lambda ctx: {})
        platform.deploy(self.EU)
        assert self.hints(platform) == ["vm-0", "vm-2"]

        platform.add_node("vm-9", region="eu")
        assert "vm-9" in platform.crm.dht_for("Eu").nodes
        assert self.hints(platform) == ["vm-0", "vm-2", "vm-9"]
        platform.add_node("vm-10", region="us")
        assert "vm-10" not in platform.crm.dht_for("Eu").nodes
        assert self.hints(platform) == ["vm-0", "vm-2", "vm-9"]

        platform.fail_node("vm-0")
        assert self.hints(platform) == ["vm-2", "vm-9"]
        obj = platform.new_object("Eu")
        assert platform.invoke(obj, "touch").ok
        pods = platform.crm.runtime("Eu").services["touch"].deployment.pods
        assert pods and {pod.node for pod in pods} <= {"vm-2", "vm-9"}

    def test_a_region_losing_its_last_node_does_not_orphan_the_class(self):
        platform = Oparaca(PlatformConfig(nodes=3, regions=("eu", "uk", "us")))
        platform.register_image("dc/touch", lambda ctx: {})
        platform.deploy(self.EU.replace("[eu]", "[eu, uk]"))
        assert self.hints(platform) == ["vm-0", "vm-1"]
        platform.fail_node("vm-1")  # "uk" now names no node at all
        assert self.hints(platform) == ["vm-0"]
        platform.add_node("vm-9", region="eu")
        assert "vm-9" in platform.crm.dht_for("Eu").nodes
        assert self.hints(platform) == ["vm-0", "vm-9"]


class TestInterRegionLatency:
    def test_cross_region_transfer_slower(self):
        env = Environment()
        regions = {"a1": "A", "a2": "A", "b1": "B"}
        network = Network(
            env,
            NetworkModel(rtt_s=0.001, inter_region_rtt_s=0.05, bandwidth_bps=0),
            region_of=regions.get,
        )

        def timed(src, dst):
            start = env.now
            yield network.transfer(src, dst)
            return env.now - start

        same = env.run(until=env.process(timed("a1", "a2")))
        cross = env.run(until=env.process(timed("a1", "b1")))
        assert same == pytest.approx(0.001)
        assert cross == pytest.approx(0.05)
        assert network.cross_region_transfers == 1

    def test_unknown_region_treated_local(self):
        env = Environment()
        network = Network(
            env,
            NetworkModel(rtt_s=0.001, inter_region_rtt_s=0.05, bandwidth_bps=0),
            region_of=lambda n: None,
        )

        def timed():
            start = env.now
            yield network.transfer("x", "y")
            return env.now - start

        assert env.run(until=env.process(timed())) == pytest.approx(0.001)

    def test_constrained_class_avoids_cross_region_state_traffic(self):
        platform = multi_dc_platform()
        obj = platform.new_object("EuRecord")
        before = platform.network.cross_region_transfers
        for i in range(10):
            platform.invoke(obj, "touch", {"value": str(i)})
        # Locality routing + region-confined DHT: all state traffic
        # stays inside eu-west.
        assert platform.network.cross_region_transfers == before
