"""Failure-injection tests: node crashes, failover, and durability.

These pin down the durability semantics the class-runtime templates
trade between: replication keeps hot state alive through a crash,
persistence recovers it from the document store (minus the unflushed
write-behind window), and non-replicated ephemeral state dies with its
node.
"""

import pytest

from repro.errors import StorageError
from repro.platform.oparaca import Oparaca, PlatformConfig
from repro.crm.template import ClassRuntimeTemplate, RuntimeConfig, TemplateCatalog
from repro.sim.network import Network
from repro.storage.dht import Dht, DhtModel
from repro.storage.kv import DocumentStore
from repro.storage.write_behind import WriteBehindConfig


def make_dht(env, nodes=4, replication=1, persistent=True, linger=10.0):
    """A DHT with a deliberately long linger so writes stay buffered."""
    network = Network(env)
    store = DocumentStore(env) if persistent else None
    return (
        Dht(
            env,
            [f"n{i}" for i in range(nodes)],
            network,
            store,
            DhtModel(
                replication=replication,
                persistent=persistent,
                write_behind=WriteBehindConfig(batch_size=100, linger_s=linger),
            ),
        ),
        store,
    )


def run(env, generator):
    return env.run(until=env.process(generator))


class TestDhtFailover:
    def test_cannot_fail_unknown_or_last_node(self, env):
        dht, _ = make_dht(env, nodes=2)
        with pytest.raises(StorageError):
            dht.fail_node("ghost")
        dht.fail_node("n0")
        with pytest.raises(StorageError, match="last"):
            dht.fail_node("n1")

    def test_replicated_data_survives_owner_crash(self, env):
        dht, _ = make_dht(env, nodes=4, replication=2, persistent=False)
        for i in range(50):
            dht.seed({"id": f"k{i}", "version": 1, "v": i})
        victim = dht.owner("k7")
        dht.fail_node(victim)

        def read(env):
            doc = yield dht.get("k7", caller=None)
            return doc

        doc = run(env, read(env))
        assert doc is not None and doc["v"] == 7

    def test_unreplicated_ephemeral_data_dies_with_node(self, env):
        dht, _ = make_dht(env, nodes=4, replication=1, persistent=False)
        for i in range(50):
            dht.seed({"id": f"k{i}", "version": 1, "v": i})
        victim = dht.owner("k7")
        resident_before = dht.mem_count()
        dht.fail_node(victim)

        def read(env):
            doc = yield dht.get("k7", caller=None)
            return doc

        assert run(env, read(env)) is None
        # Other nodes' data survived the rebalance.
        survivors = sum(1 for i in range(50) if dht.peek(f"k{i}") is not None)
        assert 0 < survivors < 50
        assert resident_before == 50

    def test_persistent_data_reloads_from_store(self, env):
        dht, store = make_dht(env, nodes=4, replication=1, persistent=True, linger=0.001)

        def write_and_crash(env):
            for i in range(30):
                yield dht.put({"id": f"k{i}", "version": 1, "v": i}, caller="n0")
            yield dht.flush_all()

        run(env, write_and_crash(env))
        victim = dht.owner("k3")
        stats = dht.fail_node(victim)
        assert stats["lost_pending"] == 0  # everything was flushed

        def read(env):
            doc = yield dht.get("k3", caller=None)
            return doc

        assert run(env, read(env))["v"] == 3

    def test_unflushed_writes_lost_on_crash(self, env):
        dht, store = make_dht(env, nodes=2, replication=1, persistent=True, linger=100.0)

        def write(env):
            for i in range(20):
                yield dht.put({"id": f"k{i}", "version": 1}, caller="n0")

        run(env, write(env))
        assert dht.write_behind_stats["pending"] == 20
        victim = dht.nodes[0]
        pending_on_victim = sum(
            1 for i in range(20) if dht.owner(f"k{i}") == victim
        )
        stats = dht.fail_node(victim)
        assert stats["lost_pending"] == pending_on_victim
        assert stats["lost_pending"] > 0

    def test_add_node_takes_ownership(self, env):
        dht, _ = make_dht(env, nodes=3, persistent=False)
        for i in range(200):
            dht.seed({"id": f"k{i}", "version": 1})
        dht.add_node("n99")
        owned = sum(1 for i in range(200) if dht.owner(f"k{i}") == "n99")
        assert owned > 0
        # Data that moved to the new node is readable there.
        assert dht.mem_count("n99") == owned

    def test_rebalance_keeps_newest_version(self, env):
        dht, _ = make_dht(env, nodes=3, replication=2, persistent=False)
        key = "hot"
        owners = dht.owners(key)
        dht._mem[owners[0]][key] = {"id": key, "version": 5, "v": "new"}
        dht._mem[owners[1]][key] = {"id": key, "version": 3, "v": "old"}
        dht.rebalance()
        assert dht.peek(key)["v"] == "new"


class TestDeploymentReconcile:
    def test_reconcile_replaces_dead_pods(self, env):
        from repro.orchestrator.cluster import Cluster
        from repro.orchestrator.deployment import Deployment
        from repro.orchestrator.pod import PodSpec
        from repro.orchestrator.resources import ResourceSpec
        from repro.orchestrator.scheduler import Scheduler

        cluster = Cluster(env)
        for i in range(3):
            cluster.add_node(f"vm-{i}", ResourceSpec(4000, 16384))
        deployment = Deployment(
            env,
            "web",
            PodSpec(image="i", resources=ResourceSpec(500, 128)),
            Scheduler(cluster),
            replicas=3,
        )
        cluster.remove_node("vm-0")
        assert deployment.replicas == 3  # stale entry still listed
        replaced = deployment.reconcile()
        assert replaced >= 1
        assert deployment.replicas == 3
        assert all(pod.node != "vm-0" for pod in deployment.pods)


class TestPlatformFailover:
    def _replicated_platform(self):
        catalog = TemplateCatalog(
            [
                ClassRuntimeTemplate(
                    name="ha",
                    config=RuntimeConfig(
                        engine="deployment", replication=2, min_scale_override=2
                    ),
                )
            ]
        )
        platform = Oparaca(PlatformConfig(nodes=4, catalog=catalog))
        platform.register_image("f/echo", lambda ctx: {"ok": True})
        platform.deploy(
            "classes:\n  - name: T\n    keySpecs: [{name: v, type: INT}]\n"
            "    functions: [{name: f, image: f/echo}]\n"
        )
        return platform

    def test_service_keeps_serving_through_node_loss(self):
        platform = self._replicated_platform()
        objects = [platform.new_object("T", {"v": i}) for i in range(12)]
        platform.advance(5.0)  # replicas warm
        victim = platform.cluster.node_names[0]
        platform.fail_node(victim)
        for obj in objects:
            result = platform.invoke(obj, "f", raise_on_error=False)
            assert result.ok, result.error
        assert victim not in platform.crm.dht_for("T").nodes

    def test_replicated_state_survives(self):
        platform = self._replicated_platform()
        obj = platform.new_object("T", {"v": 42})
        owner = platform.crm.dht_for("T").owner(obj)
        platform.fail_node(owner)
        assert platform.get_object(obj)["state"]["v"] == 42

    def test_pods_replaced_after_failure(self):
        platform = self._replicated_platform()
        platform.advance(5.0)
        service = platform.crm.runtime("T").services["f"]
        assert service.replicas == 2
        victim = service.deployment.pods[0].node
        platform.fail_node(victim)
        assert service.replicas == 2
        assert all(pod.node != victim for pod in service.deployment.pods)

    def test_add_node_extends_runtime(self):
        platform = self._replicated_platform()
        platform.add_node("vm-new")
        assert "vm-new" in platform.crm.dht_for("T").nodes

    def test_add_node_respects_jurisdiction(self):
        platform = Oparaca(PlatformConfig(nodes=2, regions=("eu-west",)))
        platform.register_image("f/echo", lambda ctx: {})
        platform.deploy(
            "classes:\n  - name: Eu\n    constraint: { jurisdiction: eu-west }\n"
            "    functions: [{name: f, image: f/echo}]\n"
        )
        platform.add_node("vm-us", region="us-east")
        assert "vm-us" not in platform.crm.dht_for("Eu").nodes
        platform.add_node("vm-eu", region="eu-west")
        assert "vm-eu" in platform.crm.dht_for("Eu").nodes
