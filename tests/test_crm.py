"""Unit tests for the control plane: templates, manager, optimizer."""

import pytest

from repro.crm.optimizer import RequirementOptimizer
from repro.crm.template import (
    ClassRuntimeTemplate,
    RuntimeConfig,
    TemplateCatalog,
    TemplateSelector,
    default_catalog,
)
from repro.errors import (
    DeploymentError,
    TemplateSelectionError,
    UnknownClassError,
    UnknownFunctionError,
    ValidationError,
)
from repro.invoker.router import PlacementPolicy
from repro.model.nfr import Constraint, NonFunctionalRequirements, QosRequirement
from repro.monitoring.plane import MetricsConfig
from repro.platform.oparaca import Oparaca, PlatformConfig

from tests.conftest import LISTING1_YAML, register_image_handlers
from tests.helpers import listing1_platform

METRICS_ON = MetricsConfig(enabled=True)


def nfr(throughput=None, availability=None, latency=None, persistent=True, budget=None):
    return NonFunctionalRequirements(
        qos=QosRequirement(
            throughput_rps=throughput, availability=availability, latency_ms=latency
        ),
        constraint=Constraint(persistent=persistent, budget_usd_per_month=budget),
    )


class TestSelectors:
    def test_empty_selector_matches_anything(self):
        assert TemplateSelector().matches(nfr())
        assert TemplateSelector().matches(nfr(throughput=1000, persistent=False))

    def test_persistence_condition(self):
        selector = TemplateSelector(persistent=False)
        assert selector.matches(nfr(persistent=False))
        assert not selector.matches(nfr(persistent=True))

    def test_throughput_threshold(self):
        selector = TemplateSelector(min_throughput_rps=500)
        assert selector.matches(nfr(throughput=500))
        assert not selector.matches(nfr(throughput=499))
        assert not selector.matches(nfr())  # undeclared does not match

    def test_latency_bound_requirement(self):
        selector = TemplateSelector(requires_latency_bound=True)
        assert selector.matches(nfr(latency=50))
        assert not selector.matches(nfr())

    def test_availability_threshold(self):
        selector = TemplateSelector(min_availability=0.999)
        assert selector.matches(nfr(availability=0.9995))
        assert not selector.matches(nfr(availability=0.99))

    def test_budget_requirement(self):
        selector = TemplateSelector(requires_budget=True)
        assert selector.matches(nfr(budget=100))
        assert not selector.matches(nfr())


class TestCatalog:
    def test_empty_catalog_rejected(self):
        with pytest.raises(ValidationError):
            TemplateCatalog([])

    def test_duplicate_names_rejected(self):
        template = ClassRuntimeTemplate(name="x")
        with pytest.raises(ValidationError):
            TemplateCatalog([template, template])

    def test_priority_breaks_ties(self):
        low = ClassRuntimeTemplate(name="low", priority=1)
        high = ClassRuntimeTemplate(name="high", priority=9)
        assert TemplateCatalog([low, high]).select(nfr()).name == "high"

    def test_no_match_raises(self):
        only = ClassRuntimeTemplate(
            name="strict", selector=TemplateSelector(requires_budget=True)
        )
        with pytest.raises(TemplateSelectionError):
            TemplateCatalog([only]).select(nfr())

    def test_template_by_name(self):
        catalog = default_catalog()
        assert catalog.template("default").priority == 0
        with pytest.raises(TemplateSelectionError):
            catalog.template("ghost")

    def test_runtime_config_validation(self):
        with pytest.raises(ValidationError):
            RuntimeConfig(engine="lambda")
        with pytest.raises(ValidationError):
            RuntimeConfig(replication=0)


class TestDefaultCatalog:
    @pytest.mark.parametrize(
        "requirements,expected",
        [
            (nfr(), "default"),
            (nfr(persistent=False), "in-memory-ephemeral"),
            (nfr(latency=50), "low-latency"),
            (nfr(availability=0.999), "high-availability"),
            (nfr(throughput=1000), "high-throughput"),
            (nfr(budget=20), "cost-saver"),
            # Combination: ephemeral outranks latency by priority.
            (nfr(latency=50, persistent=False), "in-memory-ephemeral"),
            # Combination: latency outranks throughput.
            (nfr(latency=50, throughput=1000), "low-latency"),
        ],
    )
    def test_selection(self, requirements, expected):
        assert default_catalog().select(requirements).name == expected

    def test_paper_listing1_uses_default(self):
        # throughput: 100 < the high-throughput threshold.
        assert default_catalog().select(nfr(throughput=100)).name == "default"


class TestManager:
    def test_deploy_package_creates_runtimes(self, platform):
        assert platform.crm.deployed_classes() == ("Image", "LabelledImage")
        runtime = platform.crm.runtime("Image")
        assert set(runtime.services) == {"resize", "changeFormat"}
        assert runtime.engine_name == "knative"

    def test_macro_gets_no_service(self, platform):
        runtime = platform.crm.runtime("Image")
        assert "thumbnail" not in runtime.services

    def test_child_runtime_serves_inherited_methods(self, platform):
        runtime = platform.crm.runtime("LabelledImage")
        assert set(runtime.services) == {"resize", "changeFormat", "detectObject"}

    def test_duplicate_deploy_rejected(self, platform):
        with pytest.raises(DeploymentError, match="already deployed"):
            platform.deploy(LISTING1_YAML)

    def test_per_class_dht_collections(self, platform):
        image_dht = platform.crm.dht_for("Image")
        labelled_dht = platform.crm.dht_for("LabelledImage")
        assert image_dht is not labelled_dht
        assert image_dht.collection == "objects.Image"

    def test_unknown_class_lookups(self, platform):
        with pytest.raises(UnknownClassError):
            platform.crm.runtime("Ghost")
        with pytest.raises(UnknownClassError):
            platform.crm.resolved("Ghost")

    def test_unknown_service_lookup(self, platform):
        with pytest.raises(UnknownFunctionError):
            platform.crm.runtime("Image").service("thumbnail")

    def test_undeploy_class(self, platform):
        platform.crm.undeploy_class("LabelledImage")
        assert platform.crm.deployed_classes() == ("Image",)
        assert "LabelledImage.detectObject" not in platform.crm.knative.service_names
        with pytest.raises(UnknownClassError):
            platform.crm.undeploy_class("LabelledImage")

    def test_template_override_at_deploy(self, bare_platform):
        register_image_handlers(bare_platform)
        from repro.model.pkg import loads_package

        package = loads_package(LISTING1_YAML)
        resolved = package.resolved_classes()
        forced = ClassRuntimeTemplate(
            name="forced",
            config=RuntimeConfig(engine="deployment", placement=PlacementPolicy.RANDOM),
        )
        runtime = bare_platform.crm.deploy_class(resolved["Image"], template=forced)
        assert runtime.engine_name == "deployment"
        assert runtime.router.policy is PlacementPolicy.RANDOM

    def test_min_scale_override_prewarms(self, bare_platform):
        register_image_handlers(bare_platform)
        from repro.model.pkg import loads_package

        package = loads_package(LISTING1_YAML)
        resolved = package.resolved_classes()
        warm = ClassRuntimeTemplate(
            name="warm", config=RuntimeConfig(engine="deployment", min_scale_override=3)
        )
        runtime = bare_platform.crm.deploy_class(resolved["Image"], template=warm)
        assert all(svc.replicas == 3 for svc in runtime.services.values())

    def test_replication_capped_by_cluster(self, bare_platform):
        register_image_handlers(bare_platform)
        from repro.model.pkg import loads_package

        resolved = loads_package(LISTING1_YAML).resolved_classes()
        replicated = ClassRuntimeTemplate(
            name="r9", config=RuntimeConfig(replication=9)
        )
        runtime = bare_platform.crm.deploy_class(resolved["Image"], template=replicated)
        assert runtime.dht.model.replication == 3  # only 3 nodes exist

    def test_describe_shape(self, platform):
        description = platform.crm.describe()
        assert [d["class"] for d in description] == ["Image", "LabelledImage"]
        assert description[0]["template"] == "default"
        assert "resize" in description[0]["services"]


class TestOptimizer:
    def _busy_platform(
        self, engine="deployment", qos="throughput: 400", concurrency=2, min_scale=1
    ):
        # Pin the class to one engine (by default a plain deployment, no
        # KPA) so every floor move observed comes from the optimizer.
        pinned = TemplateCatalog(
            [
                ClassRuntimeTemplate(
                    name="pinned",
                    config=RuntimeConfig(engine=engine, min_scale_override=min_scale),
                )
            ]
        )
        platform = Oparaca(PlatformConfig(nodes=3, catalog=pinned, metrics=METRICS_ON))

        @platform.function("img/slow", service_time_s=0.2)
        def slow(ctx):
            return {}

        platform.deploy(
            f"""
classes:
  - name: Busy
    qos: {{ {qos} }}
    functions:
      - name: work
        image: img/slow
        provision: {{ concurrency: {concurrency}, minScale: {min_scale} }}
"""
        )
        return platform

    @staticmethod
    def _drive(platform, clients, until, stop_at=None):
        """``clients`` closed-loop callers of ``Busy.work``; caller ``i``
        stops at ``stop_at(i)`` (default ``until``)."""
        from repro.invoker.request import InvocationRequest

        obj = platform.new_object("Busy")

        def client(env, stop):
            while env.now < stop:
                yield platform.engine.invoke(
                    InvocationRequest(object_id=obj, fn_name="work")
                )

        for i in range(clients):
            platform.env.process(client(platform.env, stop_at(i) if stop_at else until))
        platform.env.run(until=until)

    def test_scales_up_on_throughput_shortfall(self):
        platform = self._busy_platform()
        optimizer = RequirementOptimizer(
            platform.env, platform.crm, platform.metrics, interval_s=1.0
        )
        obj = platform.new_object("Busy")

        def client(env):
            from repro.invoker.request import InvocationRequest

            while env.now < 12.0:
                yield platform.engine.invoke(
                    InvocationRequest(object_id=obj, fn_name="work")
                )

        for _ in range(12):
            platform.env.process(client(platform.env))
        platform.env.run(until=12.0)
        svc = platform.crm.runtime("Busy").services["work"]
        assert svc.replicas > 1
        assert any(d.action == "scale-up" for d in optimizer.decisions)
        reasons = [d.reason for d in optimizer.decisions]
        assert any("throughput" in reason for reason in reasons)

    def test_no_action_without_qos(self):
        platform = listing1_platform(metrics=METRICS_ON)
        optimizer = RequirementOptimizer(
            platform.env, platform.crm, platform.metrics, interval_s=1.0
        )
        # Image declares throughput: 100 - but LabelledImage inherits it
        # too; with zero load, saturation never holds, so no decisions.
        platform.advance(5.0)
        assert not optimizer.decisions and optimizer.decisions_total == 0

    def test_scale_down_after_idle_grace(self):
        platform = self._busy_platform()
        optimizer = RequirementOptimizer(
            platform.env,
            platform.crm,
            platform.metrics,
            interval_s=1.0,
            scale_down_grace_s=3.0,
        )
        svc = platform.crm.runtime("Busy").services["work"]
        svc.deployment.scale(4)
        platform.advance(10.0)
        assert svc.replicas < 4
        assert any(d.action == "scale-down" for d in optimizer.decisions)

    def test_alert_scales_on_the_same_scrape(self):
        platform = self._busy_platform()
        optimizer = RequirementOptimizer(
            platform.env, platform.crm, platform.metrics, interval_s=1.0
        )
        self._drive(platform, clients=12, until=6.0)
        [alert] = [a for a in platform.metrics.slo.alerts if a.slo == "throughput"]
        first = optimizer.decisions[0]
        assert first.action == "scale-up"
        assert first.at == alert.fired_at
        assert (first.replicas_before, first.floor) == (1, 2)
        svc = platform.crm.runtime("Busy").services["work"]
        assert svc.min_scale == svc.replicas > 1

    def test_unsaturated_class_gets_no_scale_up(self):
        # A 150 ms bound on a 200 ms handler: the latency objective
        # fires, but 6 callers use 6 of 16 slots, and more replicas
        # cannot make the handler faster.
        platform = self._busy_platform(qos="latency: 150", concurrency=8, min_scale=2)
        optimizer = RequirementOptimizer(
            platform.env, platform.crm, platform.metrics, interval_s=1.0
        )
        self._drive(platform, clients=6, until=20.0)
        assert any(a.slo == "latency_p95" for a in platform.metrics.slo.firing())
        assert not [d for d in optimizer.decisions if d.action == "scale-up"]
        assert platform.crm.runtime("Busy").services["work"].replicas == 2

    def test_kpa_never_goes_below_the_floor(self):
        platform = self._busy_platform(engine="knative", qos="latency: 300")
        optimizer = RequirementOptimizer(
            platform.env, platform.crm, platform.metrics, interval_s=1.0
        )
        svc = platform.crm.runtime("Busy").services["work"]
        kpa_tick, ticks = svc.tick, []

        def tick():
            kpa_tick()
            ticks.append((platform.now, svc.replicas, svc.min_scale))

        svc.tick = tick
        platform.advance(2.1)  # the first replica is warm
        # A burst of 12 callers saturates the service until the KPA
        # catches up; from t=6 one caller is left, which one replica
        # serves.
        self._drive(
            platform, clients=12, until=16.0, stop_at=lambda i: 16.0 if i == 0 else 6.0
        )
        assert any(d.action == "scale-up" for d in optimizer.decisions)
        assert svc.min_scale > 1
        assert all(replicas >= floor for _at, replicas, floor in ticks)
        assert [replicas for at, replicas, _floor in ticks if at > 7.0] == (
            [svc.min_scale] * 5
        )

    def test_optimizer_needs_the_metrics_plane(self):
        with pytest.raises(ValidationError, match="metrics"):
            PlatformConfig(optimizer_enabled=True)
